#include "src/core/map_store.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"
#include "src/util/math.h"

namespace fmoe {
namespace {

void UpdateBest(SearchResult* best, size_t index, double score) {
  if (!best->found || score > best->score) {  // Strict >: lowest index wins ties.
    best->found = true;
    best->index = index;
    best->score = score;
  }
}

std::vector<float> ToFloat(std::span<const double> values) {
  std::vector<float> out(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = static_cast<float>(values[i]);
  }
  return out;
}

uint8_t EncodeQ8(float v, float scale, float offset) {
  if (scale <= 0.0f) {
    return 0;  // Constant column: every value is `offset` exactly.
  }
  const float q = std::round((v - offset) / scale);
  return static_cast<uint8_t>(std::clamp(q, 0.0f, 255.0f));
}

}  // namespace

const char* MapPrecisionName(MapPrecision precision) {
  switch (precision) {
    case MapPrecision::kFp32:
      return "fp32";
    case MapPrecision::kFp16:
      return "fp16";
    case MapPrecision::kInt8:
      return "int8";
  }
  return "fp32";
}

bool ParseMapPrecision(std::string_view text, MapPrecision* out) {
  if (text == "fp32") {
    *out = MapPrecision::kFp32;
  } else if (text == "fp16") {
    *out = MapPrecision::kFp16;
  } else if (text == "int8") {
    *out = MapPrecision::kInt8;
  } else {
    return false;
  }
  return true;
}

ExpertMapStore::ExpertMapStore(const ModelConfig& model, size_t capacity, int prefetch_distance,
                               StoreDedupPolicy dedup, MapPrecision precision)
    : model_(model),
      capacity_(capacity),
      prefetch_distance_(prefetch_distance),
      dedup_(dedup),
      precision_(precision),
      map_dim_(model.num_layers * model.experts_per_layer) {
  FMOE_CHECK(capacity > 0);
  FMOE_CHECK(prefetch_distance >= 0 && prefetch_distance <= model.num_layers);
  records_.reserve(capacity);
  // The column matrix has a fixed stride of `capacity` values, so it is sized once up front;
  // slots past size() are never read (every scan is bounded by size()). Exactly one of the
  // three precision variants is allocated.
  const size_t cols = capacity * static_cast<size_t>(map_dim_);
  switch (precision_) {
    case MapPrecision::kFp32:
      map_cols_.resize(cols, 0.0f);
      break;
    case MapPrecision::kFp16:
      map_cols16_.resize(cols, 0);
      break;
    case MapPrecision::kInt8:
      map_cols8_.resize(cols, 0);
      // Ranges start collapsed at 0 (scale 0 == "column is constant 0"); the first nonzero
      // value in a column widens its range via RequantizeColumn, so each column's grid adapts
      // to that column's actual magnitude (hot-expert columns near 1, cold ones near 0).
      col_scales_.assign(static_cast<size_t>(map_dim_), 0.0f);
      col_offsets_.assign(static_cast<size_t>(map_dim_), 0.0f);
      col_range_lo_.assign(static_cast<size_t>(map_dim_), 0.0f);
      col_range_hi_.assign(static_cast<size_t>(map_dim_), 0.0f);
      break;
  }
  map_rows_.reserve(cols);
  prefix_sqnorms_.reserve(capacity * static_cast<size_t>(model.num_layers + 1));
  inv_prefix_norms_.reserve(capacity * static_cast<size_t>(model.num_layers + 1));
}

const StoredIteration& ExpertMapStore::Get(size_t index) const {
  FMOE_CHECK(index < records_.size());
  return records_[index];
}

std::span<const float> ExpertMapStore::MapRow(size_t index) const {
  FMOE_CHECK(index < records_.size());
  return std::span<const float>(map_rows_.data() + index * static_cast<size_t>(map_dim_),
                                static_cast<size_t>(map_dim_));
}

std::span<const float> ExpertMapStore::EmbeddingRow(size_t index) const {
  FMOE_CHECK(index < records_.size());
  return std::span<const float>(emb_rows_.data() + index * emb_stride_, emb_dims_[index]);
}

size_t ExpertMapStore::EmbeddingDim(size_t index) const {
  FMOE_CHECK(index < records_.size());
  return emb_dims_[index];
}

double ExpertMapStore::EmbeddingNorm(size_t index) const {
  FMOE_CHECK(index < records_.size());
  return emb_norms_[index];
}

double ExpertMapStore::PrefixNorm(size_t index, int prefix_layers) const {
  FMOE_CHECK(index < records_.size());
  FMOE_CHECK(prefix_layers >= 0 && prefix_layers <= model_.num_layers);
  return std::sqrt(
      prefix_sqnorms_[index * static_cast<size_t>(model_.num_layers + 1) +
                      static_cast<size_t>(prefix_layers)]);
}

void ExpertMapStore::ScanMapColumns(std::span<const float> coeffs, size_t first_col,
                                    size_t begin, size_t end, const Q8Coeffs* folded,
                                    double* out) const {
  FMOE_CHECK(first_col + coeffs.size() <= static_cast<size_t>(map_dim_));
  FMOE_CHECK(begin <= end && end <= records_.size());
  const size_t base = first_col * capacity_ + begin;
  switch (precision_) {
    case MapPrecision::kFp32:
      AccumulateColumns(coeffs, map_cols_.data() + base, capacity_, end - begin, out);
      break;
    case MapPrecision::kFp16:
      AccumulateColumnsF16(coeffs, map_cols16_.data() + base, capacity_, end - begin, out);
      break;
    case MapPrecision::kInt8:
      FMOE_CHECK(folded != nullptr && folded->q.size() == coeffs.size());
      AccumulateColumnsQ8(*folded, map_cols8_.data() + base, capacity_, end - begin, out);
      break;
  }
}

void ExpertMapStore::FoldQ8ScanCoeffs(std::span<const float> coeffs, size_t first_col,
                                      Q8Coeffs* folded) const {
  if (precision_ != MapPrecision::kInt8) {
    return;
  }
  FMOE_CHECK(first_col + coeffs.size() <= static_cast<size_t>(map_dim_));
  FoldQ8Coeffs(coeffs, col_scales_.data() + first_col, col_offsets_.data() + first_col,
               folded);
}

void ExpertMapStore::GrowEmbeddingStride(size_t dim) {
  if (dim <= emb_stride_) {
    return;
  }
  std::vector<float> repacked(records_.size() * dim, 0.0f);
  for (size_t i = 0; i < records_.size(); ++i) {
    std::copy_n(emb_rows_.data() + i * emb_stride_, emb_dims_[i], repacked.data() + i * dim);
  }
  emb_rows_ = std::move(repacked);
  emb_stride_ = dim;
}

void ExpertMapStore::RequantizeColumn(size_t k, float v) {
  // Widen monotonically with a 25% margin past the violating value, so a slowly creeping
  // column maximum triggers O(log) requantizations, not one per insert.
  float lo = std::min(col_range_lo_[k], v);
  float hi = std::max(col_range_hi_[k], v);
  const float margin = 0.25f * (hi - lo);
  if (v < col_range_lo_[k]) {
    lo = v - margin;
  }
  if (v > col_range_hi_[k]) {
    hi = v + margin;
  }
  col_range_lo_[k] = lo;
  col_range_hi_[k] = hi;
  const float scale = (hi - lo) / 255.0f;
  col_offsets_[k] = lo;
  col_scales_[k] = scale;
  // Re-encode the whole column from the exact record data (records_ keeps the original
  // doubles), and refresh the dequantized row view to match what scans now see.
  for (size_t i = 0; i < records_.size(); ++i) {
    const std::span<const double> flat = records_[i].map.Flat();
    const float exact = flat.empty() ? 0.0f : static_cast<float>(flat[k]);
    const uint8_t q = EncodeQ8(exact, scale, lo);
    map_cols8_[k * capacity_ + i] = q;
    map_rows_[i * static_cast<size_t>(map_dim_) + k] = lo + scale * static_cast<float>(q);
  }
  norms_dirty_ = true;  // Every record's prefix norms may have shifted; IndexRecord rebuilds.
}

float ExpertMapStore::StoreColumnValue(size_t k, size_t slot, float v) {
  switch (precision_) {
    case MapPrecision::kFp32:
      map_cols_[k * capacity_ + slot] = v;
      return v;
    case MapPrecision::kFp16: {
      const uint16_t h = Fp16FromFloat(v);
      map_cols16_[k * capacity_ + slot] = h;
      return Fp16ToFloat(h);
    }
    case MapPrecision::kInt8: {
      if (v < col_range_lo_[k] || v > col_range_hi_[k]) {
        RequantizeColumn(k, v);
      }
      const float scale = col_scales_[k];
      const float offset = col_offsets_[k];
      const uint8_t q = EncodeQ8(v, scale, offset);
      map_cols8_[k * capacity_ + slot] = q;
      return offset + scale * static_cast<float>(q);
    }
  }
  return v;
}

void ExpertMapStore::RebuildPrefixNorms(size_t slot) {
  // Running prefix squared norms over the (dequantized) float row — entry l = ‖layers
  // [0, l)‖² — and their inverses, with 0 standing in for 1/0 so scan-time scoring is a
  // branch-free multiply.
  const int J = model_.experts_per_layer;
  const float* row = map_rows_.data() + slot * static_cast<size_t>(map_dim_);
  double* sq = prefix_sqnorms_.data() + slot * static_cast<size_t>(model_.num_layers + 1);
  double* inv = inv_prefix_norms_.data() + slot * static_cast<size_t>(model_.num_layers + 1);
  sq[0] = 0.0;
  inv[0] = 0.0;
  for (int l = 0; l < model_.num_layers; ++l) {
    const std::span<const float> layer(row + static_cast<size_t>(l) * static_cast<size_t>(J),
                                       static_cast<size_t>(J));
    sq[l + 1] = sq[l] + DotF(layer, layer);
    inv[l + 1] = sq[l + 1] == 0.0 ? 0.0 : 1.0 / std::sqrt(sq[l + 1]);
  }
}

void ExpertMapStore::IndexRecord(size_t slot) {
  const StoredIteration& record = records_[slot];
  const std::span<const double> flat = record.map.Flat();
  FMOE_CHECK_MSG(flat.empty() || flat.size() == static_cast<size_t>(map_dim_),
                 "map shape mismatch: record has " << flat.size() << " values, store expects "
                                                   << map_dim_);

  // Map row (empty maps index as all-zero rows and never match anything), scattered into the
  // layer-major column matrix as well: column k of record `slot` lives at k·capacity + slot.
  // The row keeps the dequantized value StoreColumnValue actually stored.
  float* row = map_rows_.data() + slot * static_cast<size_t>(map_dim_);
  for (int k = 0; k < map_dim_; ++k) {
    const float v = flat.empty() ? 0.0f : static_cast<float>(flat[static_cast<size_t>(k)]);
    row[k] = StoreColumnValue(static_cast<size_t>(k), slot, v);
  }

  if (norms_dirty_) {
    // A column requantization rewrote dequantized values across all records.
    for (size_t i = 0; i < records_.size(); ++i) {
      RebuildPrefixNorms(i);
    }
    norms_dirty_ = false;
  } else {
    RebuildPrefixNorms(slot);
  }

  // Embedding row + norm.
  const size_t dim = record.embedding.size();
  GrowEmbeddingStride(dim);
  emb_dims_[slot] = dim;
  float* erow = emb_rows_.data() + slot * emb_stride_;
  std::fill_n(erow, emb_stride_, 0.0f);
  for (size_t k = 0; k < dim; ++k) {
    erow[k] = static_cast<float>(record.embedding[k]);
  }
  emb_norms_[slot] =
      std::sqrt(DotF(std::span<const float>(erow, dim), std::span<const float>(erow, dim)));
  inv_emb_norms_[slot] = emb_norms_[slot] == 0.0 ? 0.0 : 1.0 / emb_norms_[slot];
}

uint64_t ExpertMapStore::Insert(StoredIteration record) {
  // An int8 column widens its range to cover every value, so one huge value would cost the
  // whole column its resolution.
  const std::span<const double> probs = record.map.Flat();
  FMOE_CHECK_MSG(std::all_of(probs.begin(), probs.end(),
                             [](double p) { return p >= 0.0 && p <= 1.0; }),
                 "expert-map probability outside [0, 1] in request " << record.request_id);
  ++generation_;
  if (records_.size() < capacity_) {
    records_.push_back(std::move(record));
    map_rows_.resize(records_.size() * static_cast<size_t>(map_dim_));
    emb_rows_.resize(records_.size() * emb_stride_, 0.0f);
    emb_dims_.push_back(0);
    emb_norms_.push_back(0.0);
    inv_emb_norms_.push_back(0.0);
    prefix_sqnorms_.resize(records_.size() * static_cast<size_t>(model_.num_layers + 1));
    inv_prefix_norms_.resize(records_.size() * static_cast<size_t>(model_.num_layers + 1));
    IndexRecord(records_.size() - 1);
    return 0;
  }
  if (dedup_ == StoreDedupPolicy::kFifo) {
    records_[next_fifo_slot_] = std::move(record);
    IndexRecord(next_fifo_slot_);
    next_fifo_slot_ = (next_fifo_slot_ + 1) % capacity_;
    return 0;
  }

  // At capacity: one batched RDY pass to find the stored record most redundant with the
  // incoming one. RDY = (d/L)·cos_sem + ((L−d)/L)·cos_traj; embedding-dimension mismatches
  // contribute a semantic term of 0 (and are not charged).
  const size_t n = records_.size();
  const std::vector<float> map_query = ToFloat(record.map.Flat());
  const double map_qnorm = std::sqrt(DotF(map_query, map_query));
  const double inv_map_qnorm = map_qnorm == 0.0 ? 0.0 : 1.0 / map_qnorm;
  const size_t norm_stride = static_cast<size_t>(model_.num_layers + 1);
  const size_t full = static_cast<size_t>(model_.num_layers);
  Q8Coeffs folded;
  FoldQ8ScanCoeffs(map_query, 0, &folded);
  std::vector<double> trajectory(n, 0.0);
  ScanMapColumns(map_query, 0, 0, n, &folded, trajectory.data());
  for (size_t i = 0; i < n; ++i) {
    trajectory[i] *= inv_map_qnorm * inv_prefix_norms_[i * norm_stride + full];
  }

  const std::vector<float> emb_query = ToFloat(record.embedding);
  const double emb_qnorm = std::sqrt(DotF(emb_query, emb_query));
  const double inv_emb_qnorm = emb_qnorm == 0.0 ? 0.0 : 1.0 / emb_qnorm;
  std::vector<double> semantic(n, 0.0);
  uint64_t compared = 0;
  for (size_t i = 0; i < n; ++i) {
    if (emb_dims_[i] != emb_query.size()) {
      continue;
    }
    ++compared;
    semantic[i] = DotF(emb_query, EmbeddingRow(i)) * inv_emb_qnorm * inv_emb_norms_[i];
  }

  const double L = static_cast<double>(model_.num_layers);
  const double d = static_cast<double>(prefetch_distance_);
  size_t most_redundant = 0;
  double best_score = -2.0;
  for (size_t i = 0; i < n; ++i) {
    const double score = (d / L) * semantic[i] + ((L - d) / L) * trajectory[i];
    if (score > best_score) {
      best_score = score;
      most_redundant = i;
    }
  }
  const uint64_t flops = n * 2ULL * static_cast<uint64_t>(map_dim_) +
                         compared * 2ULL * record.embedding.size();
  records_[most_redundant] = std::move(record);
  IndexRecord(most_redundant);
  return flops;
}

SearchResult ExpertMapStore::SemanticSearch(std::span<const double> embedding) const {
  SearchResult result;
  const size_t n = records_.size();
  if (n == 0) {
    return result;
  }
  const std::vector<float> query = ToFloat(embedding);
  const double qnorm = std::sqrt(DotF(query, query));
  const double inv_qnorm = qnorm == 0.0 ? 0.0 : 1.0 / qnorm;

  // Fast path: every record matches the query dimension — one batched strided pass.
  const bool uniform =
      std::all_of(emb_dims_.begin(), emb_dims_.end(),
                  [&](size_t dim) { return dim == query.size(); });
  std::vector<double> scores(n, 0.0);
  uint64_t compared = 0;
  if (uniform) {
    compared = n;
    CosineAgainstRows(query, inv_qnorm, emb_rows_.data(), emb_stride_, n, inv_emb_norms_.data(),
                      scores.data());
    for (size_t i = 0; i < n; ++i) {
      UpdateBest(&result, i, scores[i]);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (emb_dims_[i] != query.size()) {
        continue;  // Skipped records are not compared and not charged.
      }
      ++compared;
      UpdateBest(&result, i, DotF(query, EmbeddingRow(i)) * inv_qnorm * inv_emb_norms_[i]);
    }
  }
  result.flops = compared * 2ULL * embedding.size();
  return result;
}

SearchResult ExpertMapStore::TrajectorySearch(std::span<const double> prefix,
                                              int prefix_layers) const {
  FMOE_CHECK(prefix.size() == static_cast<size_t>(prefix_layers) *
                                  static_cast<size_t>(model_.experts_per_layer));
  SearchResult result;
  const size_t n = records_.size();
  if (n == 0) {
    return result;
  }
  const std::vector<float> query = ToFloat(prefix);
  const double qnorm = std::sqrt(DotF(query, query));
  const double inv_qnorm = qnorm == 0.0 ? 0.0 : 1.0 / qnorm;
  const size_t norm_stride = static_cast<size_t>(model_.num_layers + 1);
  Q8Coeffs folded;
  FoldQ8ScanCoeffs(query, 0, &folded);
  std::vector<double> scores(n, 0.0);
  // The prefix touches columns [0, prefix_layers·J) of the layer-major matrix — one fully
  // sequential streaming pass, independent of the full map width.
  ScanMapColumns(query, 0, 0, n, &folded, scores.data());
  for (size_t i = 0; i < n; ++i) {
    scores[i] *= inv_qnorm *
                 inv_prefix_norms_[i * norm_stride + static_cast<size_t>(prefix_layers)];
  }
  for (size_t i = 0; i < n; ++i) {
    UpdateBest(&result, i, scores[i]);
  }
  result.flops = n * 2ULL * prefix.size();
  return result;
}

size_t ExpertMapStore::MemoryBytes() const {
  size_t map_value_bytes = sizeof(float);
  switch (precision_) {
    case MapPrecision::kFp32:
      map_value_bytes = sizeof(float);
      break;
    case MapPrecision::kFp16:
      map_value_bytes = sizeof(uint16_t);
      break;
    case MapPrecision::kInt8:
      map_value_bytes = sizeof(uint8_t);
      break;
  }
  size_t bytes = 0;
  for (size_t i = 0; i < records_.size(); ++i) {
    bytes += static_cast<size_t>(map_dim_) * map_value_bytes + emb_dims_[i] * sizeof(float);
  }
  if (precision_ == MapPrecision::kInt8 && !records_.empty()) {
    bytes += 2 * static_cast<size_t>(map_dim_) * sizeof(float);  // Scale/offset tables.
  }
  return bytes;
}

size_t ExpertMapStore::MemoryBytesAtCapacity(int embedding_dim) const {
  size_t map_value_bytes = sizeof(float);
  switch (precision_) {
    case MapPrecision::kFp32:
      map_value_bytes = sizeof(float);
      break;
    case MapPrecision::kFp16:
      map_value_bytes = sizeof(uint16_t);
      break;
    case MapPrecision::kInt8:
      map_value_bytes = sizeof(uint8_t);
      break;
  }
  const size_t per_record =
      static_cast<size_t>(map_dim_) * map_value_bytes +
      static_cast<size_t>(embedding_dim) * sizeof(float);
  size_t bytes = capacity_ * per_record;
  if (precision_ == MapPrecision::kInt8) {
    bytes += 2 * static_cast<size_t>(map_dim_) * sizeof(float);
  }
  return bytes;
}

void ExpertMapStore::Clear() {
  ++generation_;
  records_.clear();
  // The column matrices keep their fixed capacity-stride allocations; stale slots are never
  // read because every scan is bounded by size(). Quantization ranges reset so a reused store
  // re-adapts its per-column grids to the new data.
  if (precision_ == MapPrecision::kInt8) {
    std::fill(col_scales_.begin(), col_scales_.end(), 0.0f);
    std::fill(col_offsets_.begin(), col_offsets_.end(), 0.0f);
    std::fill(col_range_lo_.begin(), col_range_lo_.end(), 0.0f);
    std::fill(col_range_hi_.begin(), col_range_hi_.end(), 0.0f);
  }
  norms_dirty_ = false;
  map_rows_.clear();
  emb_rows_.clear();
  emb_stride_ = 0;
  emb_dims_.clear();
  emb_norms_.clear();
  inv_emb_norms_.clear();
  prefix_sqnorms_.clear();
  inv_prefix_norms_.clear();
  next_fifo_slot_ = 0;
}

// ---- TrajectorySearchSession ----

TrajectorySearchSession::TrajectorySearchSession(const ExpertMapStore* store) : store_(store) {
  FMOE_CHECK(store != nullptr);
  prefix_.reserve(static_cast<size_t>(store->map_dim()));
  Reset();
}

void TrajectorySearchSession::Reset() {
  observed_layers_ = 0;
  prefix_.clear();
  prefix_sqnorm_ = 0.0;
  generation_ = store_->generation();
  dots_.assign(store_->size(), 0.0);
}

bool TrajectorySearchSession::IsStale() const {
  return generation_ != store_->generation();
}

uint64_t TrajectorySearchSession::Rebuild() {
  const size_t n = store_->size();
  dots_.assign(n, 0.0);
  generation_ = store_->generation();
  if (n == 0 || prefix_.empty()) {
    return 0;
  }
  store_->FoldQ8ScanCoeffs(prefix_, 0, &q8_scratch_);
  store_->ScanMapColumns(prefix_, 0, 0, n, &q8_scratch_, dots_.data());
  return n * 2ULL * prefix_.size();
}

uint64_t TrajectorySearchSession::ObserveLayer(std::span<const double> probs) {
  const int J = store_->model().experts_per_layer;
  FMOE_CHECK_MSG(probs.size() == static_cast<size_t>(J),
                 "gate distribution has " << probs.size() << " entries, expected " << J);
  FMOE_CHECK(observed_layers_ < store_->model().num_layers);
  const size_t offset = prefix_.size();
  prefix_.resize(offset + static_cast<size_t>(J));
  for (int j = 0; j < J; ++j) {
    prefix_[offset + static_cast<size_t>(j)] = static_cast<float>(probs[static_cast<size_t>(j)]);
  }
  const std::span<const float> block(prefix_.data() + offset, static_cast<size_t>(J));
  prefix_sqnorm_ += DotF(block, block);
  ++observed_layers_;

  if (IsStale()) {
    return Rebuild();
  }
  const size_t n = store_->size();
  if (n == 0) {
    return 0;
  }
  // Extend each record's running dot by only the newly observed layer: the layer's J values
  // occupy columns [offset, offset + J) of the layer-major matrix, so this is J contiguous
  // sequential column passes — a few microseconds even at a 4096-record store.
  store_->FoldQ8ScanCoeffs(block, offset, &q8_scratch_);
  store_->ScanMapColumns(block, offset, 0, n, &q8_scratch_, dots_.data());
  return n * 2ULL * static_cast<uint64_t>(J);
}

SearchResult TrajectorySearchSession::CurrentBest() {
  SearchResult result;
  uint64_t flops = 0;
  if (IsStale()) {
    flops = Rebuild();
  }
  const size_t n = store_->size();
  if (n == 0 || observed_layers_ == 0) {
    result.flops = flops;
    return result;
  }
  const double qnorm = std::sqrt(prefix_sqnorm_);
  const double inv_qnorm = qnorm == 0.0 ? 0.0 : 1.0 / qnorm;
  const size_t norm_stride = static_cast<size_t>(store_->model().num_layers + 1);
  const double* inv_norms = store_->inv_prefix_norms_data();
  for (size_t i = 0; i < n; ++i) {
    const double inv = inv_norms[i * norm_stride + static_cast<size_t>(observed_layers_)];
    UpdateBest(&result, i, dots_[i] * inv_qnorm * inv);
  }
  result.flops = flops + 3ULL * n;  // Norm product, scale, compare per record.
  return result;
}

}  // namespace fmoe
