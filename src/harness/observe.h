// The one command-line front end every plan-running tool shares (fmoe_sim and the figure
// benches): the flags that observe a plan run, and the routine that runs a plan under them.
//
//   --jobs N          worker threads for the runner; output is byte-identical for any N.
//   --trace-out PATH  attach a TraceRecorder to one task (--trace-task, default 0), write its
//                     Chrome trace-event JSON to PATH and the stall report to stderr.
//   --oracle          run the clairvoyant oracle on every task (DESIGN.md 5k) and print the
//                     "% of clairvoyant optimum" gap table; each result also carries its
//                     oracle block into the JSON report.
//
// FlagParser matches '_' and '-' as one character, so --trace_out and --trace-out are the
// same flag. Observing never changes what the caller renders: stdout and every report are
// byte-identical with or without a trace, and differ under --oracle only by the results'
// oracle blocks.
#ifndef FMOE_SRC_HARNESS_OBSERVE_H_
#define FMOE_SRC_HARNESS_OBSERVE_H_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/plan.h"
#include "src/util/flags.h"

namespace fmoe {

struct ObserveOptions {
  int jobs = 1;             // Worker threads for the plan runner (<= 0: hardware threads).
  std::string trace_out{};  // Non-empty: write a Chrome trace of task `trace_task` here.
  int64_t trace_task = 0;   // Plan index of the traced task.
  bool oracle = false;      // Run the clairvoyant oracle on every task.
};

// Declares --jobs, --trace-out, --trace-task and --oracle on `flags`.
void AddObserveFlags(FlagParser& flags);
// Reads them back after a successful Parse.
ObserveOptions ReadObserveFlags(const FlagParser& flags);

// The "% of clairvoyant optimum" table: one row per oracle-enabled task, labelled by its plan
// index and tags.
void PrintOracleTable(const ExperimentPlan& plan, const std::vector<ExperimentResult>& results,
                      std::ostream& out);

// Renders a run's results; returns the process exit code (0 to go on to the report).
using RenderResultsFn = std::function<int(const std::vector<ExperimentResult>&)>;

// Runs `plan` under `options` and hands the ordered results to `render`. Under --oracle every
// task records its gate-decision tape first. Once `render` returns 0, prints the gap table
// to `gap_out` (under --oracle), then writes the trace file and the traced task's stall
// report to stderr (under --trace-out); the trace's process is named
// "<program> [<task>] <system>". Returns the process exit code: 1 when --trace-task is out
// of range (checked before anything runs) or the trace cannot be written, else render's.
int RunObserved(const std::string& program, ExperimentPlan& plan, const ObserveOptions& options,
                std::ostream& gap_out, const RenderResultsFn& render);

}  // namespace fmoe

#endif  // FMOE_SRC_HARNESS_OBSERVE_H_
