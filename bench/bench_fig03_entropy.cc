// Figure 3: expert-pattern predictability in coarse vs fine granularity.
//   3a — coarse vs fine expert-activation heatmaps (Mixtral, one request).
//   3b — mean per-layer Shannon entropy of coarse vs fine patterns, 3 models x 2 datasets.
//   3c — mean per-layer entropy as activations aggregate across iterations.
//
// This bench measures gate statistics directly rather than running experiments, so it does
// not build an ExperimentPlan; it still takes the shared flags and honours --out_json with a
// custom report.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench/bench_common.h"
#include "src/moe/embedding.h"
#include "src/moe/gate_simulator.h"
#include "src/util/math.h"
#include "src/util/stats.h"
#include "src/workload/workload.h"

namespace {

using namespace fmoe;
using namespace fmoe::bench;

// Mean per-layer entropy of iteration-level (fine) distributions and of the request-level
// (coarse) top-K count aggregate, averaged over requests.
struct EntropyPair {
  double fine = 0.0;
  double coarse = 0.0;
};

EntropyPair MeasureEntropy(const ModelConfig& model, const DatasetProfile& dataset,
                           uint64_t seed, int requests, int iterations) {
  GateSimulator gate(model, GateProfile{}, seed);
  WorkloadGenerator generator(dataset, seed);
  RunningStat fine;
  RunningStat coarse;
  for (int r = 0; r < requests; ++r) {
    const Request request = generator.NextRequest();
    for (int layer = 0; layer < model.num_layers; ++layer) {
      std::vector<double> aggregate(static_cast<size_t>(model.experts_per_layer), 0.0);
      for (int i = 1; i <= iterations; ++i) {
        const std::vector<double> probs = gate.Distribution(request.routing, i, layer);
        fine.Add(Entropy(probs));
        for (size_t idx : TopKIndices(probs, static_cast<size_t>(model.top_k))) {
          aggregate[idx] += 1.0;
        }
      }
      NormalizeInPlace(aggregate);
      coarse.Add(Entropy(aggregate));
    }
  }
  return EntropyPair{fine.mean(), coarse.mean()};
}

void PrintHeatmaps(const ModelConfig& model) {
  PrintBanner(std::cout, "Figure 3a: coarse vs fine expert activation heatmaps (" + model.name +
                             ", layers x experts, '#' = hot)");
  GateSimulator gate(model, GateProfile{}, 7);
  WorkloadGenerator generator(LmsysLikeProfile(), 7);
  const Request request = generator.NextRequest();
  const int iterations = 48;

  // Coarse: request-level activation counts. Fine: a single iteration's activations.
  auto glyph = [](double v) {
    if (v <= 0.0) {
      return ' ';
    }
    if (v < 0.34) {
      return '.';
    }
    if (v < 0.67) {
      return '+';
    }
    return '#';
  };

  std::cout << "fine-grained (iteration 1)        coarse-grained (request aggregate)\n";
  for (int layer = 0; layer < model.num_layers; layer += 2) {
    std::string fine_row;
    const std::vector<double> probs = gate.Distribution(request.routing, 1, layer);
    const auto top = TopKIndices(probs, static_cast<size_t>(model.top_k));
    for (int j = 0; j < model.experts_per_layer; ++j) {
      const bool active = std::find(top.begin(), top.end(), static_cast<size_t>(j)) != top.end();
      fine_row += active ? '#' : ' ';
    }
    std::vector<double> counts(static_cast<size_t>(model.experts_per_layer), 0.0);
    for (int i = 1; i <= iterations; ++i) {
      const std::vector<double> p = gate.Distribution(request.routing, i, layer);
      for (size_t idx : TopKIndices(p, static_cast<size_t>(model.top_k))) {
        counts[idx] += 1.0;
      }
    }
    const double max_count = *std::max_element(counts.begin(), counts.end());
    std::string coarse_row;
    for (double c : counts) {
      coarse_row += glyph(max_count > 0 ? c / max_count : 0.0);
    }
    std::cout << "L" << (layer < 10 ? "0" : "") << layer << " |" << fine_row << "|"
              << std::string(28 - static_cast<size_t>(model.experts_per_layer), ' ') << "|"
              << coarse_row << "|\n";
  }
}

struct DatasetEntropy {
  std::string model;
  std::string dataset;
  EntropyPair pair;
  double max_entropy = 0.0;
};

struct AggregationEntropy {
  std::string model;
  std::vector<double> coarse;  // One value per aggregation window in kWindows.
};

constexpr int kWindows[] = {4, 16, 32, 64};

}  // namespace

int main(int argc, char** argv) {
  using fmoe::AsciiTable;

  BenchEnv env;
  int exit_code = 0;
  if (!ParseBenchArgs(argc, argv, "bench_fig03_entropy",
                      "Figure 3: coarse vs fine expert-pattern predictability", &env,
                      &exit_code)) {
    return exit_code;
  }

  if (!env.observe.trace_out.empty()) {
    std::cerr << "note: --trace-out is ignored: this bench measures data structures directly "
                 "(no serving engine to trace)\n";
  }

  PrintHeatmaps(MixtralConfig());

  std::vector<DatasetEntropy> by_dataset;
  PrintBanner(std::cout, "Figure 3b: mean entropy per layer, coarse vs fine (nats)");
  AsciiTable table_b({"model", "dataset", "fine-grained", "coarse-grained", "max (ln J)"});
  for (const ModelConfig& model : AllPaperModels()) {
    for (const DatasetProfile& dataset : AllPaperDatasets()) {
      const EntropyPair pair = MeasureEntropy(model, dataset, 42, /*requests=*/12,
                                              /*iterations=*/48);
      by_dataset.push_back(DatasetEntropy{model.name, dataset.name, pair,
                                          std::log(model.experts_per_layer)});
      table_b.AddRow({model.name, dataset.name, AsciiTable::Num(pair.fine, 2),
                      AsciiTable::Num(pair.coarse, 2),
                      AsciiTable::Num(std::log(model.experts_per_layer), 2)});
    }
  }
  table_b.Print(std::cout);

  std::vector<AggregationEntropy> by_window;
  PrintBanner(std::cout, "Figure 3c: mean entropy per layer through inference iterations");
  AsciiTable table_c({"model", "after 4 iters", "after 16 iters", "after 32 iters",
                      "after 64 iters"});
  for (const ModelConfig& model : AllPaperModels()) {
    AggregationEntropy agg{model.name, {}};
    std::vector<std::string> row{model.name};
    for (int iterations : kWindows) {
      const EntropyPair pair =
          MeasureEntropy(model, LmsysLikeProfile(), 42, /*requests=*/8, iterations);
      agg.coarse.push_back(pair.coarse);
      row.push_back(AsciiTable::Num(pair.coarse, 2));
    }
    by_window.push_back(std::move(agg));
    table_c.AddRow(row);
  }
  table_c.Print(std::cout);

  std::cout << "Expected shape (paper Fig. 3): fine-grained entropy well below coarse-grained\n"
               "for every model/dataset (3b); aggregated entropy grows with the number of\n"
               "iterations aggregated (3c), i.e. coarse patterns become less predictable.\n";

  if (!env.out_json.empty()) {
    const bool ok = WriteJsonFile(env.out_json, [&](std::ostream& out) {
      out << "{\n  \"per_dataset\": [\n";
      for (size_t i = 0; i < by_dataset.size(); ++i) {
        const DatasetEntropy& e = by_dataset[i];
        out << "    {\"model\": \"" << e.model << "\", \"dataset\": \"" << e.dataset
            << "\", \"fine_entropy\": " << e.pair.fine
            << ", \"coarse_entropy\": " << e.pair.coarse
            << ", \"max_entropy\": " << e.max_entropy << "}"
            << (i + 1 < by_dataset.size() ? "," : "") << "\n";
      }
      out << "  ],\n  \"aggregation_windows\": [";
      for (size_t i = 0; i < std::size(kWindows); ++i) {
        out << (i ? ", " : "") << kWindows[i];
      }
      out << "],\n  \"coarse_entropy_by_window\": [\n";
      for (size_t i = 0; i < by_window.size(); ++i) {
        out << "    {\"model\": \"" << by_window[i].model << "\", \"coarse_entropy\": [";
        for (size_t w = 0; w < by_window[i].coarse.size(); ++w) {
          out << (w ? ", " : "") << by_window[i].coarse[w];
        }
        out << "]}" << (i + 1 < by_window.size() ? "," : "") << "\n";
      }
      out << "  ]\n}\n";
    });
    if (!ok) {
      return 1;
    }
  }
  return 0;
}
