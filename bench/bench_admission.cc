// Closed-loop vs open-loop admission under burst and sustained overload (DESIGN.md §5j).
//
// Replays two adversarial arrival traces (src/workload/burst.h) through the continuous-
// batching scheduler on the fMoE system, once with the legacy open-loop admission (fixed
// batch limit, never rejects) and once with the gradient controller (AIMD batch control +
// SLO shedding on live stall-attribution signals). The run is virtual-time and
// single-seeded, so the committed BENCH_admission.json baseline is reproducible bit-for-bit.
//
// Expected shape: on the burst trace the open-loop queue balloons during each burst and its
// served-request p99 blows through the SLO; the gradient controller sheds the requests whose
// wait already burns the latency budget, so its p99 stays under the SLO at the cost of
// explicit rejections. The process exit code asserts exactly that (the CI bench-smoke
// contract): closed loop must meet the SLO on the burst trace at a strictly lower p99 than
// open loop, else exit 2.
//
// Usage: bench_admission [--small] [--json PATH] [--jobs N]
//   --small      CI smoke configuration: shorter traces.
//   --json PATH  Also write the results as JSON to PATH (the BENCH_admission.json format).
//   --jobs N     Worker threads for the plan runner (0 = one per hardware thread); output is
//                byte-identical for any value.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/harness/experiment.h"
#include "src/moe/model_config.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/workload/burst.h"
#include "src/workload/workload.h"

namespace fmoe {
namespace {

// End-to-end latency objective. The tiny model serves an uncontended request in ~30 ms, so
// the budget is dominated by tolerable queueing — bursts that stack tens of requests deep
// must trip the shedder.
constexpr double kSloSec = 1.0;
constexpr uint64_t kSeed = 42;
constexpr int kMaxBatch = 4;

struct Cell {
  std::string trace;
  std::string policy;
  ExperimentResult result{};
};

ExperimentOptions BaseOptions(bool closed_loop) {
  ExperimentOptions options = bench::SweepOptions(TinyTestConfig(), LmsysLikeProfile());
  options.max_decode_tokens = 16;
  if (closed_loop) {
    options.admission.policy = AdmissionPolicyKind::kGradient;
    options.admission.slo_sec = kSloSec;
    options.admission.window_sec = 0.5;
    options.admission.update_period_sec = 0.02;
  }
  return options;
}

DatasetProfile Prompts() {
  DatasetProfile prompts = LmsysLikeProfile();
  prompts.max_decode_tokens = 16;  // Given requests are served as they are: cap at the source.
  return prompts;
}

double P99(const std::vector<double>& latencies) {
  return latencies.empty() ? 0.0 : Percentile(latencies, 99.0);
}

double SloAttainment(const std::vector<double>& latencies) {
  if (latencies.empty()) {
    return 0.0;
  }
  size_t within = 0;
  for (const double latency : latencies) {
    within += latency <= kSloSec ? 1 : 0;
  }
  return static_cast<double>(within) / static_cast<double>(latencies.size());
}

void WriteJson(const std::vector<Cell>& cells, std::ostream& out) {
  out << "{\n";
  out << "  \"description\": \"Closed-loop vs open-loop admission (DESIGN.md \\u00a75j): the "
         "continuous-batching scheduler replays square-wave burst and sustained-overload "
         "traces (src/workload/burst.h) on the fMoE system with the tiny test model, once "
         "per admission policy. Virtual-time and single-seeded, so regeneration is "
         "bit-exact. Regenerate with: build/bench/bench_admission --json "
         "BENCH_admission.json\",\n";
  out << "  \"config\": {\"model\": \"" << JsonEscape(TinyTestConfig().name)
      << "\", \"system\": \"fMoE\", \"slo_s\": " << kSloSec
      << ", \"max_batch_size\": " << kMaxBatch << ", \"seed\": " << kSeed << "},\n";
  out << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const SchedulerStats& s = c.result.scheduler_stats;
    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"trace\": \"%s\", \"policy\": \"%s\", \"arrived\": %zu, "
                  "\"served\": %zu, \"rejected\": %zu, \"mean_e2e_s\": %.9g, "
                  "\"p99_e2e_s\": %.9g, \"slo_attainment\": %.6g, \"hit_rate\": %.6g, "
                  "\"tokens_per_s\": %.9g}",
                  c.trace.c_str(), c.policy.c_str(), s.arrived_requests, s.served_requests,
                  s.rejected_requests, c.result.mean_e2e, P99(c.result.request_latencies),
                  SloAttainment(c.result.request_latencies), c.result.hit_rate,
                  s.Throughput(c.result.scheduled_tokens));
    out << row << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

int Run(bool small, const std::string& json_path, int jobs) {
  const size_t count = small ? 256 : 512;

  // Burst: quiet phases the engine absorbs easily (~10 req/s against ~5 ms batched service),
  // bursts far past service rate so hundreds of requests stack up within a second — deep
  // enough that draining the backlog open-loop takes multiples of the SLO.
  BurstTraceProfile burst;
  burst.base_rate = 10.0;
  burst.burst_rate = 2000.0;
  burst.period_sec = 4.0;
  burst.burst_fraction = 0.25;
  // Overload: sustained arrivals past what the batch can serve, so queues grow unboundedly.
  const std::vector<std::pair<std::string, std::vector<Request>>> traces{
      {"burst", MakeBurstTrace(burst, Prompts(), count, kSeed)},
      {"overload", MakeOverloadTrace(1000.0, Prompts(), count, kSeed)}};

  ExperimentPlan plan;
  std::vector<Cell> cells;
  for (const auto& [trace_name, requests] : traces) {
    for (const bool closed_loop : {false, true}) {
      cells.push_back({.trace = trace_name, .policy = closed_loop ? "gradient" : "open-loop"});
      ExperimentTask task{.system = "fMoE",
                          .options = BaseOptions(closed_loop),
                          .source = RequestSource::kRequests,
                          .requests = requests,
                          .serving = Serving::kContinuous};
      task.scheduler.max_batch_size = kMaxBatch;
      plan.Add(std::move(task));
    }
  }
  RunnerOptions runner;
  runner.jobs = jobs;
  const std::vector<ExperimentResult> results = RunPlan(plan, runner);
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i].result = results[i];
  }

  AsciiTable table({"trace", "policy", "arrived", "served", "shed", "mean e2e (s)",
                    "p99 e2e (s)", "SLO met (%)", "hit %"});
  for (const Cell& c : cells) {
    const SchedulerStats& s = c.result.scheduler_stats;
    table.AddRow({c.trace, c.policy, std::to_string(s.arrived_requests),
                  std::to_string(s.served_requests), std::to_string(s.rejected_requests),
                  AsciiTable::Num(c.result.mean_e2e, 2),
                  AsciiTable::Num(P99(c.result.request_latencies), 2),
                  bench::Pct(SloAttainment(c.result.request_latencies)),
                  bench::Pct(c.result.hit_rate)});
  }
  std::printf("Admission control under burst/overload: fMoE on %s, SLO %.1f s, batch limit %d\n",
              TinyTestConfig().name.c_str(), kSloSec, kMaxBatch);
  table.Print(std::cout);

  // The exit-code contract: closed loop meets the SLO on the burst trace, strictly below the
  // open-loop p99.
  double open_p99 = 0.0;
  double closed_p99 = 0.0;
  for (const Cell& c : cells) {
    if (c.trace == "burst") {
      (c.policy == "gradient" ? closed_p99 : open_p99) = P99(c.result.request_latencies);
    }
  }
  const bool closed_meets_slo = closed_p99 <= kSloSec;
  const bool closed_below_open = closed_p99 < open_p99;
  std::printf(
      "Expected shape: open loop serves everything and its burst p99 blows through the SLO;\n"
      "the gradient controller sheds stale queue entries, holding served p99 under %.1f s.\n",
      kSloSec);
  std::printf("closed loop meets SLO on burst trace: %s (p99 %.2f s vs SLO %.1f s)\n",
              closed_meets_slo ? "yes" : "NO (unexpected)", closed_p99, kSloSec);
  std::printf("closed-loop p99 below open loop on burst trace: %s (%.2f s vs %.2f s)\n",
              closed_below_open ? "yes" : "NO (unexpected)", closed_p99, open_p99);

  if (!json_path.empty()) {
    if (!bench::WriteJsonFile(json_path,
                              [&](std::ostream& out) { WriteJson(cells, out); })) {
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return closed_meets_slo && closed_below_open ? 0 : 2;
}

}  // namespace
}  // namespace fmoe

int main(int argc, char** argv) {
  fmoe::bench::GateArgs args;
  int exit_code = 0;
  if (!fmoe::bench::ParseGateArgs(argc, argv, "bench_admission",
                                  "Closed-loop vs open-loop admission under burst and "
                                  "sustained overload",
                                  /*with_jobs=*/true, &args, &exit_code)) {
    return exit_code;
  }
  return fmoe::Run(args.small, args.json, args.jobs);
}
