// Quickstart: serve a small Mixtral-8x7B workload with fMoE and the four baselines, and print
// the headline metrics (TTFT, TPOT, expert hit rate) — a miniature of the paper's Fig. 9.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "src/harness/experiment.h"
#include "src/util/table.h"

int main() {
  fmoe::ExperimentOptions options;
  options.model = fmoe::MixtralConfig();
  options.dataset = fmoe::LmsysLikeProfile();
  options.history_requests = 96;
  options.test_requests = 32;
  options.max_decode_tokens = 32;

  fmoe::PrintBanner(std::cout, "fMoE quickstart: " + options.model.name + " on " +
                                   options.dataset.name);
  std::cout << "expert cache budget: "
            << static_cast<double>(fmoe::ResolveCacheBytes(options)) / (1 << 30) << " GiB of "
            << static_cast<double>(options.model.total_expert_bytes()) / (1 << 30)
            << " GiB total expert weights\n";

  fmoe::AsciiTable table({"system", "TTFT (s)", "TPOT (s)", "hit rate", "iterations"});
  for (const std::string& system : fmoe::PaperSystemNames()) {
    const fmoe::ExperimentResult result =
        fmoe::RunExperiment({.system = system, .options = options});
    table.AddRow({result.system, fmoe::AsciiTable::Num(result.mean_ttft, 3),
                  fmoe::AsciiTable::Num(result.mean_tpot, 4),
                  fmoe::AsciiTable::Num(result.hit_rate, 3),
                  std::to_string(result.iterations)});
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape (paper Fig. 9): fMoE lowest TTFT/TPOT; DeepSpeed-Inference\n"
               "worst; Mixtral-Offloading high hit rate but poor latency.\n";
  return 0;
}
