// SIMD hot-kernel + quantized-store benchmark for BENCH_simd.json.
//
// The "before" side runs live against the scalar reference build (fmoe::scalar::,
// src/util/math_scalar.cc) — the same kernel source compiled with the SIMD backend forced to
// scalar and compiler vectorization off — so the comparison never goes stale and measures
// exactly what the dispatch buys. simd_equivalence_test separately proves the two sides
// produce bitwise-identical fp32 results, so this file measures pure throughput, not
// behavioral drift.
//
// Three sections:
//   micro  — store-shaped kernel loops (column scans, batched dots, cosine scoring), scalar
//            vs dispatched, plus the reduced-precision column kernels (fp16/int8).
//   search — TrajectorySearch against a filled store at each map precision: the user-visible
//            scan path, including the Q8 coefficient fold.
//   memory — MemoryBytesAtCapacity of the paper's 1K-map store at each precision.
//
// Usage: bench_simd [--small] [--json PATH]
//   --small      CI smoke configuration: fewer reps and rows.
//   --json PATH  Also write the results as JSON to PATH.
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/map_store.h"
#include "src/moe/model_config.h"
#include "src/util/math.h"

namespace fmoe {
namespace {

using Clock = std::chrono::steady_clock;

double Secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct MicroResult {
  std::string kernel;
  double scalar_elems_per_sec = 0.0;
  double dispatched_elems_per_sec = 0.0;
  double speedup = 0.0;
};

struct SearchResultRow {
  std::string precision;
  double searches_per_sec = 0.0;
};

struct MemoryRow {
  std::string precision;
  size_t bytes = 0;
  double ratio_vs_fp32 = 0.0;
};

// A store-scan-shaped workload: J coefficient columns over `rows` records, column-major with
// `rows` floats of stride — exactly what one observed gate layer costs the map store.
struct ScanWorkload {
  size_t rows;
  size_t coeffs;
  std::vector<float> c;
  std::vector<float> cols;
  std::vector<uint16_t> cols16;
  std::vector<uint8_t> cols8;
  std::vector<float> scales;
  std::vector<float> offsets;
  std::vector<double> out;
};

ScanWorkload MakeScanWorkload(size_t rows, size_t coeffs) {
  ScanWorkload w;
  w.rows = rows;
  w.coeffs = coeffs;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  w.c.resize(coeffs);
  for (float& x : w.c) {
    x = dist(rng);
  }
  w.cols.resize(coeffs * rows);
  for (float& x : w.cols) {
    x = dist(rng);
  }
  w.cols16.resize(w.cols.size());
  for (size_t i = 0; i < w.cols.size(); ++i) {
    w.cols16[i] = Fp16FromFloat(w.cols[i]);
  }
  w.cols8.resize(w.cols.size());
  w.scales.assign(coeffs, 1.0f / 255.0f);
  w.offsets.assign(coeffs, 0.0f);
  for (size_t i = 0; i < w.cols.size(); ++i) {
    w.cols8[i] = static_cast<uint8_t>(w.cols[i] * 255.0f + 0.5f);
  }
  w.out.assign(rows, 0.0);
  return w;
}

// Times `reps` runs of `fn` and returns processed elements per second, where one rep touches
// `elems` matrix elements. The accumulated `out` is consumed via a volatile sink so the
// loop cannot be dead-code-eliminated.
template <typename Fn>
double TimeElems(int reps, size_t elems, const Fn& fn) {
  volatile double sink = 0.0;
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < reps; ++r) {
    sink = sink + fn();
  }
  const double secs = Secs(start, Clock::now());
  (void)sink;
  return secs > 0.0 ? static_cast<double>(elems) * reps / secs : 0.0;
}

std::vector<MicroResult> RunMicro(size_t rows, int reps) {
  std::vector<MicroResult> results;
  const size_t kCoeffs = 8;  // Mixtral: J = 8 experts per observed layer.
  ScanWorkload w = MakeScanWorkload(rows, kCoeffs);
  const size_t elems = w.rows * w.coeffs;

  {
    MicroResult r;
    r.kernel = "AccumulateColumns fp32";
    r.scalar_elems_per_sec = TimeElems(reps, elems, [&] {
      scalar::AccumulateColumns(w.c, w.cols.data(), w.rows, w.rows, w.out.data());
      return w.out[0];
    });
    r.dispatched_elems_per_sec = TimeElems(reps, elems, [&] {
      AccumulateColumns(w.c, w.cols.data(), w.rows, w.rows, w.out.data());
      return w.out[0];
    });
    r.speedup = r.dispatched_elems_per_sec / r.scalar_elems_per_sec;
    results.push_back(r);
  }
  {
    MicroResult r;
    r.kernel = "AccumulateColumns fp16";
    r.scalar_elems_per_sec = TimeElems(reps, elems, [&] {
      scalar::AccumulateColumnsF16(w.c, w.cols16.data(), w.rows, w.rows, w.out.data());
      return w.out[0];
    });
    r.dispatched_elems_per_sec = TimeElems(reps, elems, [&] {
      AccumulateColumnsF16(w.c, w.cols16.data(), w.rows, w.rows, w.out.data());
      return w.out[0];
    });
    r.speedup = r.dispatched_elems_per_sec / r.scalar_elems_per_sec;
    results.push_back(r);
  }
  {
    Q8Coeffs folded;
    FoldQ8Coeffs(w.c, w.scales.data(), w.offsets.data(), &folded);
    MicroResult r;
    r.kernel = "AccumulateColumns int8";
    r.scalar_elems_per_sec = TimeElems(reps, elems, [&] {
      scalar::AccumulateColumnsQ8(folded, w.cols8.data(), w.rows, w.rows, w.out.data());
      return w.out[0];
    });
    r.dispatched_elems_per_sec = TimeElems(reps, elems, [&] {
      AccumulateColumnsQ8(folded, w.cols8.data(), w.rows, w.rows, w.out.data());
      return w.out[0];
    });
    r.speedup = r.dispatched_elems_per_sec / r.scalar_elems_per_sec;
    results.push_back(r);
  }

  // Batched dots / cosine scoring: the semantic-search shape (one query against all rows).
  const size_t dim = 72;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> query(dim);
  for (float& x : query) {
    x = dist(rng);
  }
  std::vector<float> mat(rows * dim);
  for (float& x : mat) {
    x = dist(rng);
  }
  std::vector<double> inv_norms(rows, 1.0);
  std::vector<double> out(rows, 0.0);
  const size_t dot_elems = rows * dim;
  {
    MicroResult r;
    r.kernel = "DotBatched dim=72";
    r.scalar_elems_per_sec = TimeElems(reps, dot_elems, [&] {
      scalar::DotBatched(query, mat.data(), dim, rows, out.data());
      return out[0];
    });
    r.dispatched_elems_per_sec = TimeElems(reps, dot_elems, [&] {
      DotBatched(query, mat.data(), dim, rows, out.data());
      return out[0];
    });
    r.speedup = r.dispatched_elems_per_sec / r.scalar_elems_per_sec;
    results.push_back(r);
  }
  {
    MicroResult r;
    r.kernel = "CosineAgainstRows dim=72";
    r.scalar_elems_per_sec = TimeElems(reps, dot_elems, [&] {
      scalar::CosineAgainstRows(query, 1.0, mat.data(), dim, rows, inv_norms.data(),
                                out.data());
      return out[0];
    });
    r.dispatched_elems_per_sec = TimeElems(reps, dot_elems, [&] {
      CosineAgainstRows(query, 1.0, mat.data(), dim, rows, inv_norms.data(), out.data());
      return out[0];
    });
    r.speedup = r.dispatched_elems_per_sec / r.scalar_elems_per_sec;
    results.push_back(r);
  }
  return results;
}

// Fills a store with random maps and times TrajectorySearch at each precision. The search
// runs the whole matching stack — precision-specific column scan + prefix-norm cosine — so
// this is the user-visible cost of a map-store rematch.
std::vector<SearchResultRow> RunSearch(size_t store_size, int reps) {
  const ModelConfig model = MixtralConfig();
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  // One shared record set so every precision indexes identical data.
  std::vector<std::vector<std::vector<double>>> all_probs(store_size);
  for (auto& layer_probs : all_probs) {
    layer_probs.assign(model.num_layers,
                       std::vector<double>(model.experts_per_layer, 0.0));
    for (auto& layer : layer_probs) {
      double sum = 0.0;
      for (double& p : layer) {
        p = dist(rng);
        sum += p;
      }
      for (double& p : layer) {
        p /= sum;
      }
    }
  }
  const int prefix_layers = model.num_layers / 2;
  const std::vector<double> query_flat = [&] {
    ExpertMap map = ExpertMap::FromLayerProbs(all_probs[0]);
    std::span<const double> prefix = map.Prefix(prefix_layers);
    return std::vector<double>(prefix.begin(), prefix.end());
  }();

  std::vector<SearchResultRow> rows;
  for (const MapPrecision precision :
       {MapPrecision::kFp32, MapPrecision::kFp16, MapPrecision::kInt8}) {
    ExpertMapStore store(model, store_size, 3, StoreDedupPolicy::kRedundancy, precision);
    for (size_t i = 0; i < store_size; ++i) {
      StoredIteration record;
      record.map = ExpertMap::FromLayerProbs(all_probs[i]);
      record.embedding.assign(8, 0.5);
      record.request_id = i;
      store.Insert(std::move(record));
    }
    volatile double sink = 0.0;
    const Clock::time_point start = Clock::now();
    for (int r = 0; r < reps; ++r) {
      sink = sink + store.TrajectorySearch(query_flat, prefix_layers).score;
    }
    const double secs = Secs(start, Clock::now());
    (void)sink;
    SearchResultRow row;
    row.precision = MapPrecisionName(precision);
    row.searches_per_sec = secs > 0.0 ? reps / secs : 0.0;
    rows.push_back(row);
  }
  return rows;
}

std::vector<MemoryRow> RunMemory() {
  const ModelConfig model = MixtralConfig();
  std::vector<MemoryRow> rows;
  size_t fp32_bytes = 0;
  for (const MapPrecision precision :
       {MapPrecision::kFp32, MapPrecision::kFp16, MapPrecision::kInt8}) {
    ExpertMapStore store(model, 1000, 3, StoreDedupPolicy::kRedundancy, precision);
    MemoryRow row;
    row.precision = MapPrecisionName(precision);
    // Map columns only (embedding_dim 0): the quantization targets the map matrix; Fig. 16's
    // embedding rows are precision-independent.
    row.bytes = store.MemoryBytesAtCapacity(/*embedding_dim=*/0);
    if (precision == MapPrecision::kFp32) {
      fp32_bytes = row.bytes;
    }
    row.ratio_vs_fp32 = static_cast<double>(fp32_bytes) / static_cast<double>(row.bytes);
    rows.push_back(row);
  }
  return rows;
}

void WriteJson(std::ostream& out, const std::vector<MicroResult>& micro,
               const std::vector<SearchResultRow>& search, const std::vector<MemoryRow>& mem,
               size_t rows, size_t store_size) {
  out << "{\n";
  out << "  \"description\": \"SIMD hot-kernel throughput (scalar reference build vs "
         "dispatched backend) and quantized Expert Map Store columns (fp16/int8). Regenerate "
         "with: build/bench/bench_simd --json BENCH_simd_run.json (Release build). The "
         "scalar side runs live (fmoe::scalar::, src/util/math_scalar.cc), so the comparison "
         "never goes stale; simd_equivalence_test proves both sides are bitwise-identical on "
         "fp32.\",\n";
  out << "  \"simd_level\": \"" << SimdLevelName() << "\",\n";
  out << "  \"config\": {\"scan_rows\": " << rows << ", \"search_store_size\": " << store_size
      << "},\n";
  out << "  \"micro_kernels\": [\n";
  for (size_t i = 0; i < micro.size(); ++i) {
    const MicroResult& r = micro[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"scalar_melems_per_sec\": "
        << static_cast<long long>(r.scalar_elems_per_sec / 1e6)
        << ", \"dispatched_melems_per_sec\": "
        << static_cast<long long>(r.dispatched_elems_per_sec / 1e6) << ", \"speedup\": "
        << static_cast<long long>(r.speedup * 10.0 + 0.5) / 10.0 << "}"
        << (i + 1 < micro.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"trajectory_search\": [\n";
  for (size_t i = 0; i < search.size(); ++i) {
    out << "    {\"precision\": \"" << search[i].precision << "\", \"searches_per_sec\": "
        << static_cast<long long>(search[i].searches_per_sec) << "}"
        << (i + 1 < search.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"store_memory_at_1k_maps\": [\n";
  for (size_t i = 0; i < mem.size(); ++i) {
    out << "    {\"precision\": \"" << mem[i].precision << "\", \"map_bytes\": " << mem[i].bytes
        << ", \"shrink_vs_fp32\": "
        << static_cast<long long>(mem[i].ratio_vs_fp32 * 100.0 + 0.5) / 100.0 << "}"
        << (i + 1 < mem.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

int Run(bool small, const std::string& json_path) {
  const size_t rows = small ? 1024 : 8192;
  const int reps = small ? 200 : 2000;
  const size_t store_size = small ? 256 : 1000;
  const int search_reps = small ? 50 : 400;

  std::printf("SIMD backend: %s\n\n", SimdLevelName());
  std::printf("micro kernels (%zu rows, %d reps; Melems/s):\n", rows, reps);
  std::printf("  %-24s %12s %12s %8s\n", "kernel", "scalar", "dispatched", "speedup");
  const std::vector<MicroResult> micro = RunMicro(rows, reps);
  for (const MicroResult& r : micro) {
    std::printf("  %-24s %12.0f %12.0f %7.1fx\n", r.kernel.c_str(),
                r.scalar_elems_per_sec / 1e6, r.dispatched_elems_per_sec / 1e6, r.speedup);
  }

  std::printf("\nTrajectorySearch on a %zu-map Mixtral store (%d reps):\n", store_size,
              search_reps);
  const std::vector<SearchResultRow> search = RunSearch(store_size, search_reps);
  for (const SearchResultRow& row : search) {
    std::printf("  %-6s %10.0f searches/s\n", row.precision.c_str(), row.searches_per_sec);
  }

  std::printf("\nstore map-column footprint at 1K Mixtral maps:\n");
  const std::vector<MemoryRow> mem = RunMemory();
  for (const MemoryRow& row : mem) {
    std::printf("  %-6s %10zu bytes  (%.2fx smaller than fp32)\n", row.precision.c_str(),
                row.bytes, row.ratio_vs_fp32);
  }

  if (!json_path.empty()) {
    if (!bench::WriteJsonFile(json_path, [&](std::ostream& out) {
          WriteJson(out, micro, search, mem, rows, store_size);
        })) {
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace fmoe

int main(int argc, char** argv) {
  fmoe::bench::GateArgs args;
  int exit_code = 0;
  if (!fmoe::bench::ParseGateArgs(argc, argv, "bench_simd",
                                  "SIMD hot kernels and quantized map-store columns",
                                  /*with_jobs=*/false, &args, &exit_code)) {
    return exit_code;
  }
  return fmoe::Run(args.small, args.json);
}
