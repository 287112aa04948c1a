#include "src/core/map_store_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "src/util/math.h"

namespace fmoe {
namespace {

// Host-endian format; the magic doubles as an endianness canary (a byte-swapped reader sees a
// different magic and refuses the file).
constexpr char kMagic[8] = {'F', 'M', 'O', 'E', 'S', 'T', 'R', '1'};

// Multi-shard wrapper format: this magic, a uint32 shard count, then one legacy single-store
// blob per shard. 1-shard stores write the legacy format directly (byte-identical).
constexpr char kShardMagic[8] = {'F', 'M', 'O', 'E', 'S', 'H', 'R', 'D'};

// `map_precision` holds the MapPrecision code of the map payload (fp32 = 0, fp16 = 1,
// int8 = 2). The field was a zero-initialized `reserved` slot before quantized stores
// existed, so fp32 files are byte-identical to the original format and old files load as
// fp32 unchanged.
struct StoreHeader {
  char magic[8];
  uint32_t num_layers = 0;
  uint32_t experts_per_layer = 0;
  uint32_t embedding_dim = 0;
  uint32_t map_precision = 0;
  uint64_t record_count = 0;
};

template <typename T>
bool WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  return static_cast<bool>(out);
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

// The store's SoA index already holds maps and embeddings as contiguous float rows — exactly
// the on-disk record layout — so fp32 serialization is a raw write, no conversion buffer.
bool WriteFloats(std::ostream& out, std::span<const float> values) {
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(float)));
  return static_cast<bool>(out);
}

// Bytes between the read position and the end of `in` (the position is restored), or
// nullopt when the stream cannot seek. Every count a file declares is checked against this
// before anything is allocated for it.
std::optional<uint64_t> BytesLeft(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  const std::istream::pos_type end = in.seekg(0, std::ios::end).tellg();
  if (here == std::istream::pos_type(-1) || end == std::istream::pos_type(-1) ||
      !in.seekg(here)) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(end - here);
}

bool AllFinite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(), [](double v) { return std::isfinite(v); });
}

// Checks a decoded map row against the probability range [0, 1] and clamps it there. A
// saved value may sit outside by the file precision's own rounding: nothing at fp32 and fp16
// (both represent 0 and 1 and round monotonically), up to half a quantization step at int8
// (plus slack for the double-precision decode), which the clamp takes back out.
bool ClampProbabilities(MapPrecision precision, const std::vector<float>& scales,
                        std::vector<double>* values) {
  for (size_t k = 0; k < values->size(); ++k) {
    const double slack =
        precision == MapPrecision::kInt8 ? 0.5 * static_cast<double>(scales[k]) + 1e-6 : 0.0;
    double& p = (*values)[k];
    if (!(p >= -slack && p <= 1.0 + slack)) {
      return false;
    }
    p = std::clamp(p, 0.0, 1.0);
  }
  return true;
}

bool ReadFloats(std::istream& in, size_t count, std::vector<double>* values) {
  std::vector<float> buffer(count);
  in.read(reinterpret_cast<char*>(buffer.data()),
          static_cast<std::streamsize>(count * sizeof(float)));
  if (!in) {
    return false;
  }
  values->assign(buffer.begin(), buffer.end());
  return true;
}

size_t MapValueBytes(MapPrecision precision) {
  switch (precision) {
    case MapPrecision::kFp32:
      return sizeof(float);
    case MapPrecision::kFp16:
      return sizeof(uint16_t);
    case MapPrecision::kInt8:
      return sizeof(uint8_t);
  }
  return sizeof(float);
}

// Re-encodes a dequantized map row into its native payload. Both encodings round-trip
// exactly: fp16 values in MapRow *are* half-rounded, and int8 values are exactly
// offset + scale·q for some code q.
bool WriteMapRow(std::ostream& out, const ExpertMapStore& store, size_t index,
                 std::vector<uint8_t>* scratch) {
  const std::span<const float> row = store.MapRow(index);
  switch (store.map_precision()) {
    case MapPrecision::kFp32:
      return WriteFloats(out, row);
    case MapPrecision::kFp16: {
      scratch->resize(row.size() * sizeof(uint16_t));
      uint16_t* half = reinterpret_cast<uint16_t*>(scratch->data());
      for (size_t k = 0; k < row.size(); ++k) {
        half[k] = Fp16FromFloat(row[k]);
      }
      break;
    }
    case MapPrecision::kInt8: {
      scratch->resize(row.size());
      const float* scales = store.col_scales_data();
      const float* offsets = store.col_offsets_data();
      for (size_t k = 0; k < row.size(); ++k) {
        const float scale = scales[k];
        (*scratch)[k] =
            scale <= 0.0f
                ? 0
                : static_cast<uint8_t>(std::lround((row[k] - offsets[k]) / scale));
      }
      break;
    }
  }
  out.write(reinterpret_cast<const char*>(scratch->data()),
            static_cast<std::streamsize>(scratch->size()));
  return static_cast<bool>(out);
}

// Decodes one map row of `count` values at the file's precision into doubles. For int8,
// `scales`/`offsets` are the per-column tables read from the file prologue.
bool ReadMapRow(std::istream& in, MapPrecision precision, size_t count,
                const std::vector<float>& scales, const std::vector<float>& offsets,
                std::vector<double>* values) {
  if (precision == MapPrecision::kFp32) {
    return ReadFloats(in, count, values);
  }
  if (precision == MapPrecision::kFp16) {
    std::vector<uint16_t> buffer(count);
    in.read(reinterpret_cast<char*>(buffer.data()),
            static_cast<std::streamsize>(count * sizeof(uint16_t)));
    if (!in) {
      return false;
    }
    values->resize(count);
    for (size_t k = 0; k < count; ++k) {
      (*values)[k] = static_cast<double>(Fp16ToFloat(buffer[k]));
    }
    return true;
  }
  std::vector<uint8_t> buffer(count);
  in.read(reinterpret_cast<char*>(buffer.data()), static_cast<std::streamsize>(count));
  if (!in) {
    return false;
  }
  values->resize(count);
  for (size_t k = 0; k < count; ++k) {
    (*values)[k] = static_cast<double>(offsets[k]) +
                   static_cast<double>(scales[k]) * static_cast<double>(buffer[k]);
  }
  return true;
}

}  // namespace

StoreIoResult SaveStore(const ExpertMapStore& store, std::ostream& out) {
  const ModelConfig& model = store.model();
  StoreHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.num_layers = static_cast<uint32_t>(model.num_layers);
  header.experts_per_layer = static_cast<uint32_t>(model.experts_per_layer);
  header.embedding_dim =
      store.size() > 0 ? static_cast<uint32_t>(store.EmbeddingDim(0)) : 0;
  header.map_precision = static_cast<uint32_t>(store.map_precision());
  header.record_count = store.size();

  // All records must share the embedding dimension for a fixed record layout.
  for (size_t i = 0; i < store.size(); ++i) {
    if (store.EmbeddingDim(i) != header.embedding_dim) {
      return StoreIoResult::Failure("records have inconsistent embedding dimensions");
    }
  }
  if (!WritePod(out, header)) {
    return StoreIoResult::Failure("failed to write header");
  }

  StoreIoResult result;
  result.bytes = sizeof(header);
  const size_t map_dim = static_cast<size_t>(store.map_dim());
  if (store.map_precision() == MapPrecision::kInt8) {
    // int8 prologue: the per-column scale/offset tables the record payloads decode against.
    const std::span<const float> scales(store.col_scales_data(), map_dim);
    const std::span<const float> offsets(store.col_offsets_data(), map_dim);
    if (!WriteFloats(out, scales) || !WriteFloats(out, offsets)) {
      return StoreIoResult::Failure("failed to write quantization tables");
    }
    result.bytes += 2 * map_dim * sizeof(float);
  }
  std::vector<uint8_t> scratch;
  for (size_t i = 0; i < store.size(); ++i) {
    const uint64_t request_id = store.Get(i).request_id;
    const int32_t iteration = store.Get(i).iteration;
    if (!WritePod(out, request_id) || !WritePod(out, iteration) ||
        !WriteMapRow(out, store, i, &scratch) || !WriteFloats(out, store.EmbeddingRow(i))) {
      return StoreIoResult::Failure("failed to write record " + std::to_string(i));
    }
    result.bytes += sizeof(request_id) + sizeof(iteration) +
                    store.MapRow(i).size() * MapValueBytes(store.map_precision()) +
                    store.EmbeddingRow(i).size() * sizeof(float);
    ++result.records;
  }
  return result;
}

// Parses one legacy single-store stream into `staged` (no inserts). Shared by the plain and
// sharded loaders, which differ only in where the decoded records are re-inserted.
static StoreIoResult ParseStoreStream(std::istream& in, const ModelConfig& model,
                                      std::vector<StoredIteration>* staged) {
  StoreHeader header;
  if (!ReadPod(in, &header)) {
    return StoreIoResult::Failure("failed to read header");
  }
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return StoreIoResult::Failure("bad magic (not an fMoE store file, or wrong endianness)");
  }
  if (header.map_precision > static_cast<uint32_t>(MapPrecision::kInt8)) {
    return StoreIoResult::Failure("unknown map precision code " +
                                  std::to_string(header.map_precision));
  }
  const MapPrecision file_precision = static_cast<MapPrecision>(header.map_precision);
  if (header.num_layers != static_cast<uint32_t>(model.num_layers) ||
      header.experts_per_layer != static_cast<uint32_t>(model.experts_per_layer)) {
    std::ostringstream message;
    message << "model shape mismatch: file has " << header.num_layers << "x"
            << header.experts_per_layer << ", store expects " << model.num_layers << "x"
            << model.experts_per_layer;
    return StoreIoResult::Failure(message.str());
  }

  const size_t map_size = static_cast<size_t>(model.num_layers) *
                          static_cast<size_t>(model.experts_per_layer);
  // Bound every declared count by the bytes actually present, so a corrupt header fails here
  // instead of asking the allocator for the declared size.
  const std::optional<uint64_t> left = BytesLeft(in);
  if (!left) {
    return StoreIoResult::Failure("stream does not support seeking");
  }
  const uint64_t table_bytes =
      file_precision == MapPrecision::kInt8 ? 2 * map_size * sizeof(float) : 0;
  const uint64_t record_bytes = sizeof(uint64_t) + sizeof(int32_t) +
                                map_size * MapValueBytes(file_precision) +
                                static_cast<uint64_t>(header.embedding_dim) * sizeof(float);
  if (table_bytes > *left || header.record_count > (*left - table_bytes) / record_bytes) {
    return StoreIoResult::Failure("truncated file: header declares " +
                                  std::to_string(header.record_count) +
                                  " records but only " + std::to_string(*left) +
                                  " bytes follow it");
  }
  StoreIoResult result;
  result.bytes = sizeof(header);
  std::vector<float> scales;
  std::vector<float> offsets;
  if (file_precision == MapPrecision::kInt8) {
    std::vector<double> table;
    if (!ReadFloats(in, map_size, &table)) {
      return StoreIoResult::Failure("truncated quantization scale table");
    }
    scales.assign(table.begin(), table.end());
    if (!ReadFloats(in, map_size, &table)) {
      return StoreIoResult::Failure("truncated quantization offset table");
    }
    offsets.assign(table.begin(), table.end());
    result.bytes += table_bytes;
  }
  // Parse into the staging buffer first so a bad file leaves the store untouched.
  // Records decode to exact doubles and re-insert through the normal path, so the destination
  // store's own precision — which may differ from the file's — re-quantizes as needed.
  staged->reserve(staged->size() + static_cast<size_t>(header.record_count));
  for (uint64_t i = 0; i < header.record_count; ++i) {
    uint64_t request_id = 0;
    int32_t iteration = 0;
    std::vector<double> map_values;
    std::vector<double> embedding;
    if (!ReadPod(in, &request_id) || !ReadPod(in, &iteration) ||
        !ReadMapRow(in, file_precision, map_size, scales, offsets, &map_values) ||
        !ReadFloats(in, header.embedding_dim, &embedding)) {
      return StoreIoResult::Failure("truncated file at record " + std::to_string(i));
    }
    if (!AllFinite(map_values) || !AllFinite(embedding)) {
      return StoreIoResult::Failure("non-finite value in record " + std::to_string(i));
    }
    if (!ClampProbabilities(file_precision, scales, &map_values)) {
      return StoreIoResult::Failure("probability outside [0, 1] in record " +
                                    std::to_string(i));
    }
    StoredIteration record;
    record.request_id = request_id;
    record.iteration = iteration;
    record.embedding = std::move(embedding);
    record.map = ExpertMap(model.num_layers, model.experts_per_layer);
    for (int layer = 0; layer < model.num_layers; ++layer) {
      record.map.SetLayer(layer,
                          std::span<const double>(map_values).subspan(
                              static_cast<size_t>(layer) *
                                  static_cast<size_t>(model.experts_per_layer),
                              static_cast<size_t>(model.experts_per_layer)));
    }
    result.bytes += sizeof(request_id) + sizeof(iteration) +
                    map_size * MapValueBytes(file_precision) +
                    header.embedding_dim * sizeof(float);
    staged->push_back(std::move(record));
  }
  return result;
}

StoreIoResult LoadStore(std::istream& in, ExpertMapStore* store) {
  std::vector<StoredIteration> staged;
  StoreIoResult result = ParseStoreStream(in, store->model(), &staged);
  if (!result.ok) {
    return result;
  }
  for (StoredIteration& record : staged) {
    store->Insert(std::move(record));
    ++result.records;
  }
  return result;
}

StoreIoResult SaveStore(const ShardedMapStore& store, std::ostream& out) {
  if (store.num_shards() == 1) {
    return SaveStore(store.shard(0), out);  // Legacy format, byte-identical.
  }
  if (!out.write(kShardMagic, sizeof(kShardMagic))) {
    return StoreIoResult::Failure("failed to write shard magic");
  }
  const uint32_t shard_count = static_cast<uint32_t>(store.num_shards());
  if (!WritePod(out, shard_count)) {
    return StoreIoResult::Failure("failed to write shard count");
  }
  StoreIoResult total;
  total.bytes = sizeof(kShardMagic) + sizeof(shard_count);
  for (int s = 0; s < store.num_shards(); ++s) {
    const StoreIoResult blob = SaveStore(store.shard(s), out);
    if (!blob.ok) {
      return blob;
    }
    total.records += blob.records;
    total.bytes += blob.bytes;
  }
  return total;
}

StoreIoResult LoadStore(std::istream& in, ShardedMapStore* store) {
  const std::istream::pos_type start = in.tellg();
  char magic[sizeof(kShardMagic)];
  if (!in.read(magic, sizeof(magic))) {
    return StoreIoResult::Failure("failed to read magic");
  }
  StoreIoResult total;
  std::vector<StoredIteration> staged;
  if (std::memcmp(magic, kShardMagic, sizeof(magic)) == 0) {
    uint32_t shard_count = 0;
    if (!ReadPod(in, &shard_count)) {
      return StoreIoResult::Failure("truncated shard count");
    }
    total.bytes = sizeof(magic) + sizeof(shard_count);
    // Every blob parses before anything is inserted, so a bad last blob leaves the store
    // untouched. The records re-insert through the destination's semantic routing, so the
    // file's shard count and the store's need not match — resharding happens on load.
    for (uint32_t s = 0; s < shard_count; ++s) {
      const StoreIoResult blob = ParseStoreStream(in, store->model(), &staged);
      if (!blob.ok) {
        return blob;
      }
      total.bytes += blob.bytes;
    }
  } else {
    // Legacy single-store file: rewind and parse it whole (ParseStoreStream re-validates the
    // legacy magic).
    in.clear();
    in.seekg(start);
    if (!in) {
      return StoreIoResult::Failure("stream does not support rewinding");
    }
    total = ParseStoreStream(in, store->model(), &staged);
    if (!total.ok) {
      return total;
    }
  }
  for (StoredIteration& record : staged) {
    store->Insert(std::move(record));
    ++total.records;
  }
  return total;
}

StoreIoResult SaveStoreToFile(const ExpertMapStore& store, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return StoreIoResult::Failure("cannot open " + path + " for writing");
  }
  return SaveStore(store, out);
}

StoreIoResult LoadStoreFromFile(const std::string& path, ExpertMapStore* store) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return StoreIoResult::Failure("cannot open " + path + " for reading");
  }
  return LoadStore(in, store);
}

StoreIoResult SaveStoreToFile(const ShardedMapStore& store, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return StoreIoResult::Failure("cannot open " + path + " for writing");
  }
  return SaveStore(store, out);
}

StoreIoResult LoadStoreFromFile(const std::string& path, ShardedMapStore* store) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return StoreIoResult::Failure("cannot open " + path + " for reading");
  }
  return LoadStore(in, store);
}

}  // namespace fmoe
