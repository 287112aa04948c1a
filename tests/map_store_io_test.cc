#include "src/core/map_store_io.h"

#include <cstring>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace fmoe {
namespace {

ModelConfig Tiny() { return TinyTestConfig(); }

StoredIteration MakeRecord(uint64_t id, int iteration) {
  const ModelConfig cfg = Tiny();
  StoredIteration record;
  record.request_id = id;
  record.iteration = iteration;
  record.map = ExpertMap(cfg.num_layers, cfg.experts_per_layer);
  for (int layer = 0; layer < cfg.num_layers; ++layer) {
    std::vector<double> row(static_cast<size_t>(cfg.experts_per_layer));
    for (int j = 0; j < cfg.experts_per_layer; ++j) {
      row[static_cast<size_t>(j)] =
          static_cast<double>((id * 31 + static_cast<uint64_t>(layer * 7 + j)) % 100) / 100.0;
    }
    record.map.SetLayer(layer, row);
  }
  record.embedding = {static_cast<double>(id), 0.5, -1.0};
  return record;
}

TEST(MapStoreIoTest, RoundTripPreservesRecords) {
  // Every precision the store saves at loads back, boundary probabilities 0 and 1 included,
  // with each value within that precision's rounding of the original.
  const std::vector<std::pair<MapPrecision, double>> precisions = {
      {MapPrecision::kFp32, 1e-6}, {MapPrecision::kFp16, 5e-4}, {MapPrecision::kInt8, 5e-3}};
  for (const auto& [precision, tolerance] : precisions) {
    SCOPED_TRACE(static_cast<int>(precision));
    ExpertMapStore original(Tiny(), 8, 2, StoreDedupPolicy::kRedundancy, precision);
    for (uint64_t id = 0; id < 5; ++id) {
      StoredIteration record = MakeRecord(id, static_cast<int>(id) + 1);
      std::vector<double> edges(static_cast<size_t>(Tiny().experts_per_layer), 0.0);
      edges[id % edges.size()] = 1.0;
      record.map.SetLayer(0, edges);
      original.Insert(std::move(record));
    }
    std::stringstream stream;
    const StoreIoResult saved = SaveStore(original, stream);
    ASSERT_TRUE(saved.ok) << saved.error;
    EXPECT_EQ(saved.records, 5u);
    EXPECT_GT(saved.bytes, 0u);

    ExpertMapStore loaded(Tiny(), 8, 2, StoreDedupPolicy::kRedundancy, precision);
    const StoreIoResult read = LoadStore(stream, &loaded);
    ASSERT_TRUE(read.ok) << read.error;
    EXPECT_EQ(read.records, 5u);
    ASSERT_EQ(loaded.size(), 5u);
    for (size_t i = 0; i < loaded.size(); ++i) {
      EXPECT_EQ(loaded.Get(i).request_id, original.Get(i).request_id);
      EXPECT_EQ(loaded.Get(i).iteration, original.Get(i).iteration);
      for (int layer = 0; layer < Tiny().num_layers; ++layer) {
        for (int j = 0; j < Tiny().experts_per_layer; ++j) {
          EXPECT_NEAR(loaded.Get(i).map.Probability(layer, j),
                      original.Get(i).map.Probability(layer, j), tolerance);
        }
      }
      ASSERT_EQ(loaded.Get(i).embedding.size(), original.Get(i).embedding.size());
      EXPECT_NEAR(loaded.Get(i).embedding[0], original.Get(i).embedding[0], 1e-6);
    }
  }
}

TEST(MapStoreIoTest, EmptyStoreRoundTrips) {
  ExpertMapStore original(Tiny(), 4, 1);
  std::stringstream stream;
  ASSERT_TRUE(SaveStore(original, stream).ok);
  ExpertMapStore loaded(Tiny(), 4, 1);
  const StoreIoResult read = LoadStore(stream, &loaded);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(MapStoreIoTest, RejectsGarbageInput) {
  std::stringstream stream("this is not a store file at all........");
  ExpertMapStore store(Tiny(), 4, 1);
  const StoreIoResult read = LoadStore(stream, &store);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("bad magic"), std::string::npos);
  EXPECT_EQ(store.size(), 0u);
}

TEST(MapStoreIoTest, RejectsModelShapeMismatch) {
  ExpertMapStore original(Tiny(), 4, 1);
  original.Insert(MakeRecord(1, 1));
  std::stringstream stream;
  ASSERT_TRUE(SaveStore(original, stream).ok);

  ModelConfig other = Tiny();
  other.experts_per_layer += 2;
  ExpertMapStore wrong(other, 4, 1);
  const StoreIoResult read = LoadStore(stream, &wrong);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("model shape mismatch"), std::string::npos);
  EXPECT_EQ(wrong.size(), 0u);
}

TEST(MapStoreIoTest, TruncatedFileLeavesStoreUntouched) {
  ExpertMapStore original(Tiny(), 4, 1);
  original.Insert(MakeRecord(1, 1));
  original.Insert(MakeRecord(2, 2));
  std::stringstream stream;
  ASSERT_TRUE(SaveStore(original, stream).ok);
  std::string bytes = stream.str();
  bytes.resize(bytes.size() - 10);  // Chop the tail of the last record.

  std::stringstream truncated(bytes);
  ExpertMapStore store(Tiny(), 4, 1);
  const StoreIoResult read = LoadStore(truncated, &store);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("truncated"), std::string::npos);
  EXPECT_EQ(store.size(), 0u);  // Staging prevented partial loads.
}

TEST(MapStoreIoTest, LoadIntoSmallerStoreGoesThroughReplacement) {
  ExpertMapStore original(Tiny(), 8, 2);
  for (uint64_t id = 0; id < 6; ++id) {
    original.Insert(MakeRecord(id, 1));
  }
  std::stringstream stream;
  ASSERT_TRUE(SaveStore(original, stream).ok);

  ExpertMapStore small(Tiny(), 3, 2);
  const StoreIoResult read = LoadStore(stream, &small);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_EQ(read.records, 6u);
  EXPECT_EQ(small.size(), 3u);  // Capacity respected via normal replacement.
}

TEST(MapStoreIoTest, FileHelpersRoundTrip) {
  const std::string path = ::testing::TempDir() + "/fmoe_store_io_test.bin";
  ExpertMapStore original(Tiny(), 4, 1);
  original.Insert(MakeRecord(7, 3));
  ASSERT_TRUE(SaveStoreToFile(original, path).ok);
  ExpertMapStore loaded(Tiny(), 4, 1);
  const StoreIoResult read = LoadStoreFromFile(path, &loaded);
  ASSERT_TRUE(read.ok) << read.error;
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.Get(0).request_id, 7u);
}

TEST(MapStoreIoTest, MissingFileFailsCleanly) {
  ExpertMapStore store(Tiny(), 4, 1);
  const StoreIoResult read = LoadStoreFromFile("/nonexistent/path/store.bin", &store);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("cannot open"), std::string::npos);
}

TEST(MapStoreIoTest, InconsistentEmbeddingDimensionsRejectedOnSave) {
  ExpertMapStore store(Tiny(), 4, 1);
  store.Insert(MakeRecord(1, 1));
  StoredIteration odd = MakeRecord(2, 1);
  odd.embedding.push_back(9.0);  // Different dimension.
  store.Insert(std::move(odd));
  std::stringstream stream;
  const StoreIoResult saved = SaveStore(store, stream);
  EXPECT_FALSE(saved.ok);
  EXPECT_NE(saved.error.find("inconsistent embedding"), std::string::npos);
}

// A 2-shard store with records in both shards, saved in the multi-shard wrapper format: the
// shard magic and a uint32 shard count, then one single-store blob per shard.
std::string TwoShardFile() {
  ShardedMapStore store(Tiny(), 32, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32, 2,
                        kSemanticRouterSeed);
  for (uint64_t id = 0; id < 12; ++id) {
    store.Insert(MakeRecord(id, 1));
  }
  EXPECT_GT(store.shard(0).size(), 0u);
  EXPECT_GT(store.shard(1).size(), 0u);
  std::stringstream stream;
  EXPECT_TRUE(SaveStore(store, stream).ok);
  return stream.str();
}

// Byte offsets of the first blob's header fields inside TwoShardFile(): 12 wrapper bytes,
// then magic[8], num_layers, experts_per_layer, embedding_dim, map_precision (uint32 each),
// record_count (uint64).
constexpr size_t kFirstBlob = 12;
constexpr size_t kEmbeddingDimAt = kFirstBlob + 16;
constexpr size_t kRecordCountAt = kFirstBlob + 24;

template <typename T>
void Poke(std::string* bytes, size_t at, T value) {
  std::memcpy(bytes->data() + at, &value, sizeof(T));
}

// Loads `bytes` into a 2-shard store that already holds one record, and checks that the
// failed load left it exactly as it was.
void ExpectRejectedAndUntouched(const std::string& bytes) {
  ShardedMapStore store(Tiny(), 32, 2, StoreDedupPolicy::kRedundancy, MapPrecision::kFp32, 2,
                        kSemanticRouterSeed);
  store.Insert(MakeRecord(99, 1));
  const uint64_t generations = store.generation(0) + store.generation(1);
  std::istringstream in(bytes);
  const StoreIoResult read = LoadStore(in, &store);
  EXPECT_FALSE(read.ok);
  EXPECT_FALSE(read.error.empty());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.generation(0) + store.generation(1), generations);
  EXPECT_EQ(store.Get(size_t{0}).request_id, 99u);
}

TEST(MapStoreIoTest, HugeRecordCountFailsWithoutAllocating) {
  std::string bytes = TwoShardFile();
  Poke<uint64_t>(&bytes, kRecordCountAt, uint64_t{1} << 58);
  ExpectRejectedAndUntouched(bytes);
}

TEST(MapStoreIoTest, HugeEmbeddingDimFailsWithoutAllocating) {
  std::string bytes = TwoShardFile();
  Poke<uint32_t>(&bytes, kEmbeddingDimAt, 0xF0000000u);
  ExpectRejectedAndUntouched(bytes);
}

TEST(MapStoreIoTest, TruncatedLastBlobLeavesShardedStoreUntouched) {
  std::string bytes = TwoShardFile();
  bytes.resize(bytes.size() - 10);  // Inside the last record of the second blob.
  ExpectRejectedAndUntouched(bytes);
}

TEST(MapStoreIoTest, NonFiniteValueIsRejected) {
  ExpertMapStore original(Tiny(), 4, 1);
  original.Insert(MakeRecord(1, 1));
  std::stringstream stream;
  ASSERT_TRUE(SaveStore(original, stream).ok);
  std::string bytes = stream.str();
  // The last float of the file is the record's final embedding component.
  Poke<float>(&bytes, bytes.size() - sizeof(float), std::numeric_limits<float>::quiet_NaN());
  std::istringstream in(bytes);
  ExpertMapStore store(Tiny(), 4, 1);
  const StoreIoResult read = LoadStore(in, &store);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("non-finite"), std::string::npos);
  EXPECT_EQ(store.size(), 0u);
}

TEST(MapStoreIoTest, OutOfRangeProbabilityIsRejected) {
  const size_t map_size =
      static_cast<size_t>(Tiny().num_layers) * static_cast<size_t>(Tiny().experts_per_layer);
  const size_t embedding_bytes = 3 * sizeof(float);  // MakeRecord's embedding.
  // fp32: the record's first map value, just past the request id and iteration.
  ExpertMapStore fp32(Tiny(), 4, 1);
  fp32.Insert(MakeRecord(1, 1));
  std::stringstream fp32_stream;
  ASSERT_TRUE(SaveStore(fp32, fp32_stream).ok);
  const size_t first_value = fp32_stream.str().size() - embedding_bytes - map_size * sizeof(float);
  // int8: the first column's offset, which every record of that column decodes against.
  ExpertMapStore int8(Tiny(), 4, 1, StoreDedupPolicy::kRedundancy, MapPrecision::kInt8);
  int8.Insert(MakeRecord(1, 1));
  std::stringstream int8_stream;
  ASSERT_TRUE(SaveStore(int8, int8_stream).ok);
  const size_t record_bytes = sizeof(uint64_t) + sizeof(int32_t) + map_size + embedding_bytes;
  const size_t first_offset = int8_stream.str().size() - record_bytes - map_size * sizeof(float);

  for (const float bad : {1.5f, -1.0f, std::numeric_limits<float>::max()}) {
    for (const auto& [base, at] : {std::pair{fp32_stream.str(), first_value},
                                   std::pair{int8_stream.str(), first_offset}}) {
      std::string bytes = base;
      Poke<float>(&bytes, at, bad);
      std::istringstream in(bytes);
      ExpertMapStore store(Tiny(), 4, 1);
      const StoreIoResult read = LoadStore(in, &store);
      EXPECT_FALSE(read.ok) << bad;
      EXPECT_NE(read.error.find("outside [0, 1]"), std::string::npos) << read.error;
      EXPECT_EQ(store.size(), 0u);
    }
  }
}

}  // namespace
}  // namespace fmoe
