// Figure 10: CDF of end-to-end request latency for online MoE serving.
//
// Cold-start protocol (§6.3): empty expert-map store / EAM, 64 requests drawn from an
// Azure-like arrival trace driving LMSYS-like prompts; every system serves the identical
// request sequence.
#include "bench/bench_common.h"
#include "src/util/stats.h"

int main(int argc, char** argv) {
  using fmoe::AsciiTable;
  using namespace fmoe::bench;

  const std::vector<double> quantiles{0.25, 0.5, 0.75, 0.9, 0.99};
  const std::vector<fmoe::ModelConfig> models = fmoe::AllPaperModels();
  const std::vector<std::string> systems = fmoe::PaperSystemNames();

  std::vector<size_t> cells;  // model-major, then system.
  return BenchMain(
      argc, argv, "bench_fig10_online_cdf",
      "Figure 10: CDF of request latency, online serving (64 trace requests)",
      [&](fmoe::ExperimentPlan& plan) {
        for (const fmoe::ModelConfig& model : models) {
          fmoe::TraceProfile trace;
          // Arrival rate scaled per model so the queue stresses but does not diverge for the
          // slowest system (Qwen's small experts serve an order of magnitude faster).
          trace.mean_arrival_rate = model.name == "Qwen1.5-MoE" ? 0.6 : 0.08;
          trace.max_decode_tokens = 48;
          for (const std::string& system : systems) {
            cells.push_back(plan.Add({.system = system,
                                      .options = StandardOptions(model, fmoe::LmsysLikeProfile()),
                                      .source = fmoe::RequestSource::kTrace,
                                      .trace = trace,
                                      .request_count = 64,
                                      .tags = {"model=" + model.name, "system=" + system}}));
          }
        }
      },
      [&](const std::vector<fmoe::ExperimentResult>& results, std::ostream& out) {
        fmoe::PrintBanner(out, "Figure 10: CDF of request latency, online serving (64 reqs)");
        size_t next = 0;
        for (const fmoe::ModelConfig& model : models) {
          AsciiTable table({model.name + " (online)", "p25 (s)", "p50 (s)", "p75 (s)",
                            "p90 (s)", "p99 (s)", "mean (s)"});
          for (size_t s = 0; s < systems.size(); ++s) {
            const fmoe::ExperimentResult& result = results[cells[next++]];
            const fmoe::EmpiricalCdf cdf(result.request_latencies);
            std::vector<std::string> row{result.system};
            for (double q : quantiles) {
              row.push_back(AsciiTable::Num(cdf.Quantile(q), 2));
            }
            row.push_back(AsciiTable::Num(result.mean_e2e, 2));
            table.AddRow(row);
          }
          table.Print(out);
        }
        out << "Expected shape (paper Fig. 10): fMoE's latency CDF sits to the left of every\n"
               "baseline at all quantiles (lower end-to-end latency including queueing), even\n"
               "though it starts with an empty Expert Map Store.\n";
      });
}
