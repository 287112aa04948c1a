// Multi-tier offload sweep for BENCH_tiering.json (DESIGN.md §5h).
//
// Sweeps host-pool capacity x NVMe bandwidth at a fixed GPU expert-cache budget on the fMoE
// system. The host_capacity_gb = 0 rows are the two-tier baseline (GPU <-> NVMe with no host
// staging pool) at the same GPU capacity, so each column reads as "what does adding a host
// RAM tier of size H buy at this NVMe speed". The run is virtual-time and single-seeded, so
// unlike the wall-clock benches the committed baseline is exactly reproducible bit-for-bit.
//
// Expected shape: demand stall falls monotonically as host capacity grows (more misses served
// over the fast host link instead of the slow NVMe link), with the largest win at the lowest
// NVMe bandwidth; at least one three-tier cell must beat its two-tier baseline strictly.
//
// Usage: bench_tiering [--small] [--json PATH] [--jobs N]
//   --small      CI smoke configuration: one bandwidth, two capacities.
//   --json PATH  Also write the results as JSON to PATH (the BENCH_tiering.json format).
//   --jobs N     Worker threads for the plan runner (0 = one per hardware thread); output is
//                byte-identical for any value.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/harness/experiment.h"
#include "src/harness/plan.h"
#include "src/harness/runner.h"
#include "src/moe/model_config.h"
#include "src/util/table.h"
#include "src/workload/workload.h"

namespace fmoe {
namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

struct Cell {
  double host_gb = 0.0;
  double nvme_gbps = 0.0;
  ExperimentResult result{};
};

ExperimentOptions BaseOptions(double host_gb, double nvme_gbps) {
  ExperimentOptions options = bench::SweepOptions(TinyTestConfig(), LmsysLikeProfile());
  // nvme_backing stays on for every cell — including host_gb = 0 — so all rows pay the same
  // NVMe master-copy cost and differ only in the staging pool between it and the GPU.
  options.tier.nvme_backing = true;
  options.tier.host_capacity_bytes = static_cast<uint64_t>(host_gb * kGiB);
  options.tier.nvme_link.bandwidth_bytes_per_sec = nvme_gbps * 1.0e9;
  options.host_stage_candidates = 2;
  return options;
}

void WriteJson(const std::vector<Cell>& cells, const ExperimentOptions& sample,
               std::ostream& out) {
  out << "{\n";
  out << "  \"description\": \"Multi-tier offload sweep (DESIGN.md \\u00a75h): host-pool "
         "capacity x NVMe bandwidth at a fixed GPU expert-cache budget, fMoE system, offline "
         "7:3 protocol on the tiny test model. host_capacity_gb = 0 rows are the two-tier "
         "GPU<->NVMe baseline at the same GPU capacity. Virtual-time and single-seeded, so "
         "regeneration is bit-exact. Regenerate with: build/bench/bench_tiering --json "
         "BENCH_tiering.json\",\n";
  out << "  \"config\": {\"model\": \"" << JsonEscape(sample.model.name)
      << "\", \"system\": \"fMoE\", \"cache_fraction\": " << sample.cache_fraction
      << ", \"history_requests\": " << sample.history_requests
      << ", \"test_requests\": " << sample.test_requests
      << ", \"host_stage_candidates\": " << sample.host_stage_candidates
      << ", \"nvme_latency_us\": " << sample.tier.nvme_link.fixed_latency_sec * 1e6
      << "},\n";
  out << "  \"sweep\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const TierStats& t = c.result.tier;
    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"host_capacity_gb\": %g, \"nvme_gbps\": %g, \"demand_stall_s\": %.9g, "
                  "\"mean_tpot_s\": %.9g, \"hit_rate\": %.6g, \"host_hits\": %llu, "
                  "\"gpu_fills_from_host\": %llu, \"gpu_fills_chained\": %llu, "
                  "\"stages_issued\": %llu, \"stages_landed\": %llu, \"host_spills\": %llu}",
                  c.host_gb, c.nvme_gbps, c.result.breakdown.demand_stall, c.result.mean_tpot,
                  c.result.hit_rate, static_cast<unsigned long long>(t.host_hits),
                  static_cast<unsigned long long>(t.gpu_fills_from_host),
                  static_cast<unsigned long long>(t.gpu_fills_chained),
                  static_cast<unsigned long long>(t.stages_issued),
                  static_cast<unsigned long long>(t.stages_landed),
                  static_cast<unsigned long long>(t.host_spills));
    out << row << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

int Run(bool small, const std::string& json_path, int jobs) {
  std::vector<double> host_gbs = {0.0, 0.05, 0.1, 0.2};
  std::vector<double> nvme_gbps_values = {2.0, 3.5, 7.0};
  if (small) {
    host_gbs = {0.0, 0.2};
    nvme_gbps_values = {3.5};
  }

  ExperimentPlan plan;
  std::vector<Cell> cells;
  for (const double gbps : nvme_gbps_values) {
    for (const double host_gb : host_gbs) {
      cells.push_back({.host_gb = host_gb, .nvme_gbps = gbps});
      plan.Add({.system = "fMoE", .options = BaseOptions(host_gb, gbps)});
    }
  }
  RunnerOptions runner;
  runner.jobs = jobs;
  const std::vector<ExperimentResult> results = RunPlan(plan, runner);
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i].result = results[i];
  }

  AsciiTable table({"nvme GB/s", "host GiB", "stall ms", "TPOT ms", "hit %", "host hits",
                    "from-host", "chained", "spills", "vs 2-tier"});
  bool three_tier_win = false;
  for (const Cell& c : cells) {
    // The host_gb = 0 cell at this bandwidth is the two-tier baseline this row compares to.
    double baseline_stall = c.result.breakdown.demand_stall;
    for (const Cell& b : cells) {
      if (b.nvme_gbps == c.nvme_gbps && b.host_gb == 0.0) {
        baseline_stall = b.result.breakdown.demand_stall;
      }
    }
    const TierStats& t = c.result.tier;
    const double delta = c.result.breakdown.demand_stall - baseline_stall;
    if (c.host_gb > 0.0 && delta < 0.0) {
      three_tier_win = true;
    }
    table.AddRow({AsciiTable::Num(c.nvme_gbps, 1), AsciiTable::Num(c.host_gb, 2),
                  bench::Ms(c.result.breakdown.demand_stall),
                  bench::Ms(c.result.mean_tpot, 2), bench::Pct(c.result.hit_rate),
                  std::to_string(t.host_hits), std::to_string(t.gpu_fills_from_host),
                  std::to_string(t.gpu_fills_chained), std::to_string(t.host_spills),
                  c.host_gb == 0.0 ? "baseline" : bench::Ms(delta)});
  }
  std::printf("Tiering sweep: fMoE on %s, GPU cache fixed, host pool x NVMe bandwidth\n",
              TinyTestConfig().name.c_str());
  table.Print(std::cout);
  std::printf(
      "Expected shape: stall falls as the host pool grows (misses served from host RAM "
      "instead of\nNVMe); the win is largest at the lowest NVMe bandwidth. 'vs 2-tier' is the "
      "stall delta\nagainst the host=0 baseline at the same bandwidth (negative = three-tier "
      "wins).\n");
  std::printf("three-tier beats two-tier on >=1 swept config: %s\n",
              three_tier_win ? "yes" : "NO (unexpected)");

  if (!json_path.empty()) {
    const ExperimentOptions sample = BaseOptions(0.0, nvme_gbps_values.front());
    if (!bench::WriteJsonFile(json_path,
                              [&](std::ostream& out) { WriteJson(cells, sample, out); })) {
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return three_tier_win ? 0 : 2;
}

}  // namespace
}  // namespace fmoe

int main(int argc, char** argv) {
  fmoe::bench::GateArgs args;
  int exit_code = 0;
  if (!fmoe::bench::ParseGateArgs(argc, argv, "bench_tiering",
                                  "Three-tier GPU/host/NVMe expert offloading sweep",
                                  /*with_jobs=*/true, &args, &exit_code)) {
    return exit_code;
  }
  return fmoe::Run(args.small, args.json, args.jobs);
}
