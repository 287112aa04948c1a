// Online serving example: replay an Azure-like arrival trace against Phi-3.5-MoE and compare
// the end-to-end latency distribution of fMoE with MoE-Infinity and DeepSpeed-Inference —
// the workload of the paper's §6.3, scaled to run in seconds.
//
//   ./build/examples/online_trace_replay [num_requests]
#include <cstdlib>
#include <iostream>

#include "src/harness/experiment.h"
#include "src/util/stats.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  const size_t num_requests = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 48;

  fmoe::ExperimentOptions options;
  options.model = fmoe::PhiMoeConfig();
  options.dataset = fmoe::LmsysLikeProfile();
  options.max_decode_tokens = 32;
  options.store_capacity = 512;

  fmoe::TraceProfile trace;
  trace.mean_arrival_rate = 0.15;  // Gentle load with occasional bursts.
  trace.max_decode_tokens = 48;

  fmoe::PrintBanner(std::cout, "Online trace replay: " + options.model.name + ", " +
                                   std::to_string(num_requests) + " requests (cold start)");

  fmoe::AsciiTable table(
      {"system", "mean e2e (s)", "p50 (s)", "p90 (s)", "p99 (s)", "hit rate"});
  for (const std::string& system :
       {std::string("DeepSpeed-Inference"), std::string("MoE-Infinity"), std::string("fMoE")}) {
    const fmoe::ExperimentResult result =
        fmoe::RunExperiment({.system = system,
                             .options = options,
                             .source = fmoe::RequestSource::kTrace,
                             .trace = trace,
                             .request_count = num_requests});
    const fmoe::EmpiricalCdf cdf(result.request_latencies);
    table.AddRow({result.system, fmoe::AsciiTable::Num(result.mean_e2e, 2),
                  fmoe::AsciiTable::Num(cdf.Quantile(0.5), 2),
                  fmoe::AsciiTable::Num(cdf.Quantile(0.9), 2),
                  fmoe::AsciiTable::Num(cdf.Quantile(0.99), 2),
                  fmoe::AsciiTable::Num(result.hit_rate, 3)});
  }
  table.Print(std::cout);
  std::cout << "\nfMoE starts with an empty Expert Map Store and still pulls ahead as maps\n"
               "accumulate during serving — the paper's online-serving claim (Fig. 10).\n";
  return 0;
}
