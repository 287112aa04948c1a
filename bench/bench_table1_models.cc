// Table 1: characteristics of the three MoE models in the evaluation.
//
// Static model metadata — nothing to run — so this bench only borrows the shared flag
// scaffold and the custom JSON writer.
#include <iostream>

#include "bench/bench_common.h"
#include "src/moe/cost_model.h"

int main(int argc, char** argv) {
  using fmoe::AsciiTable;
  using namespace fmoe::bench;

  BenchEnv env;
  int exit_code = 0;
  if (!ParseBenchArgs(argc, argv, "bench_table1_models",
                      "Table 1: characteristics of the evaluated MoE models", &env,
                      &exit_code)) {
    return exit_code;
  }

  if (!env.observe.trace_out.empty()) {
    std::cerr << "note: --trace-out is ignored: this bench measures data structures directly "
                 "(no serving engine to trace)\n";
  }

  fmoe::PrintBanner(std::cout, "Table 1: Characteristics of three MoE models in evaluation");
  AsciiTable table({"MoE Model", "Parameters (active/total, B)", "Experts/Layer (active/total)",
                    "Num. Layers", "Expert size (MB)", "Decode compute floor (ms/iter)"});
  for (const fmoe::ModelConfig& model : fmoe::AllPaperModels()) {
    const fmoe::CostModel cost(model, fmoe::HardwareProfile{});
    table.AddRow({model.name,
                  AsciiTable::Num(model.active_params_b, 1) + " / " +
                      AsciiTable::Num(model.total_params_b, 1),
                  std::to_string(model.top_k) + " / " + std::to_string(model.experts_per_layer),
                  std::to_string(model.num_layers),
                  AsciiTable::Num(static_cast<double>(model.expert_bytes) / 1e6, 0),
                  AsciiTable::Num(cost.DecodeIterationComputeTime() * 1e3, 1)});
  }
  table.Print(std::cout);
  std::cout << "Matches paper Table 1 (parameters, experts per layer, layer counts); the last\n"
               "two columns are the simulator's derived per-expert size and no-offload decode\n"
               "compute floor.\n";

  if (!env.out_json.empty()) {
    const bool ok = WriteJsonFile(env.out_json, [&](std::ostream& out) {
      const std::vector<fmoe::ModelConfig> models = fmoe::AllPaperModels();
      out << "{\n  \"models\": [\n";
      for (size_t m = 0; m < models.size(); ++m) {
        const fmoe::ModelConfig& model = models[m];
        const fmoe::CostModel cost(model, fmoe::HardwareProfile{});
        out << "    {\"name\": \"" << model.name
            << "\", \"active_params_b\": " << model.active_params_b
            << ", \"total_params_b\": " << model.total_params_b
            << ", \"top_k\": " << model.top_k
            << ", \"experts_per_layer\": " << model.experts_per_layer
            << ", \"num_layers\": " << model.num_layers
            << ", \"expert_bytes\": " << model.expert_bytes
            << ", \"decode_compute_floor_ms\": " << cost.DecodeIterationComputeTime() * 1e3
            << "}" << (m + 1 < models.size() ? "," : "") << "\n";
      }
      out << "  ]\n}\n";
    });
    if (!ok) {
      return 1;
    }
  }
  return 0;
}
