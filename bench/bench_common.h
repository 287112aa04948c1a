// Shared scaffolding for the figure-reproduction benches.
//
// Every bench is a declarative ExperimentPlan (src/harness/plan.h) plus a render function
// over the ordered result vector; BenchMain supplies the shared control flow — flag parsing
// (--out_json plus the observation flags of harness/observe.h), the deterministic parallel
// runner, and machine-readable output via the harness/report writers. Requests are sized so
// the full suite finishes in minutes on one core; absolute latencies come from the analytic
// hardware model (DESIGN.md §2), and what each bench must reproduce is the *shape* of the
// corresponding paper figure, stated in a trailing "expected shape" note.
//
// Determinism: rendering sees results in plan order no matter how many jobs ran, so a bench's
// stdout is byte-identical for --jobs=1 and --jobs=N (DESIGN.md §5e).
#ifndef FMOE_BENCH_BENCH_COMMON_H_
#define FMOE_BENCH_BENCH_COMMON_H_

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/observe.h"
#include "src/harness/plan.h"
#include "src/harness/report.h"
#include "src/harness/runner.h"
#include "src/util/table.h"

namespace fmoe {
namespace bench {

// Parses a bench's flags: --out_json PATH into *out_json and, for a bench that runs a plan
// (`observe` non-null), the observation flags of src/harness/observe.h (--jobs, --trace-out,
// --trace-task, --oracle). A bench that runs no plan takes only --out_json. Returns true to
// proceed; on false *exit_code holds the process exit status (0 for --help, 1 for a malformed
// or unknown flag).
bool ParseBenchArgs(int argc, const char* const* argv, const std::string& program,
                    const std::string& description, ObserveOptions* observe,
                    std::string* out_json, int* exit_code);

// Flags of the self-checking benches (bench_admission, bench_cache, bench_cluster,
// bench_oracle, bench_simd, bench_tiering), whose exit codes are CI gates.
struct GateArgs {
  bool small = false;  // --small: the CI smoke configuration.
  std::string json;    // --json PATH: also write the BENCH_*.json document here.
  int jobs = 1;        // --jobs N (only with `with_jobs`): plan-runner worker threads.
};

// Parses --small, --json PATH and, with `with_jobs`, --jobs N. Same contract as
// ParseBenchArgs.
bool ParseGateArgs(int argc, const char* const* argv, const std::string& program,
                   const std::string& description, bool with_jobs, GateArgs* args,
                   int* exit_code);

using DeclareFn = std::function<void(ExperimentPlan&)>;
using RenderFn = std::function<void(const std::vector<ExperimentResult>&, std::ostream&)>;

// Standard bench entry point: declare the plan, run it through RunObserved (harness/
// observe.h: --jobs workers, --trace-out, --oracle with its gap table on stdout), render the
// tables over the ordered results, and honour --out_json with a plan report
// (harness/report.h). Without --oracle, stdout and --out_json are byte-identical to a run
// without the oracle; tracing never changes either.
int BenchMain(int argc, const char* const* argv, const std::string& program,
              const std::string& description, const DeclareFn& declare,
              const RenderFn& render);

// For benches whose machine-readable output is not an ExperimentResult vector (fig. 3/16,
// table 1): writes a custom JSON document produced by `write` to `path`. Returns false and
// prints to stderr on I/O failure.
bool WriteJsonFile(const std::string& path, const std::function<void(std::ostream&)>& write);

// Standard offline-experiment options (7:3 protocol, paper's d = 3).
inline ExperimentOptions StandardOptions(const ModelConfig& model,
                                         const DatasetProfile& dataset) {
  ExperimentOptions options;
  options.model = model;
  options.dataset = dataset;
  options.history_requests = 80;
  options.test_requests = 24;
  options.max_decode_tokens = 32;
  options.store_capacity = 512;
  options.prefetch_distance = 3;
  options.cache_fraction = 0.22;
  options.seed = 42;
  return options;
}

// Reduced-size options for wide parameter sweeps.
inline ExperimentOptions SweepOptions(const ModelConfig& model, const DatasetProfile& dataset) {
  ExperimentOptions options = StandardOptions(model, dataset);
  options.history_requests = 48;
  options.test_requests = 12;
  options.max_decode_tokens = 24;
  options.store_capacity = 384;
  return options;
}

inline std::string Ms(double seconds, int precision = 1) {
  return AsciiTable::Num(seconds * 1e3, precision);
}

inline std::string Pct(double fraction, int precision = 1) {
  return AsciiTable::Num(fraction * 100.0, precision);
}

}  // namespace bench
}  // namespace fmoe

#endif  // FMOE_BENCH_BENCH_COMMON_H_
