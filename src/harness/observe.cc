#include "src/harness/observe.h"

#include <iostream>

#include "src/harness/runner.h"
#include "src/obs/perfetto_export.h"
#include "src/obs/stall_report.h"
#include "src/obs/trace_recorder.h"
#include "src/util/table.h"

namespace fmoe {

void AddObserveFlags(FlagParser& flags) {
  flags.AddInt("jobs", 1,
               "worker threads for the plan runner (0 = one per hardware thread); output is "
               "byte-identical for any value");
  flags.AddString("trace-out", "",
                  "write a Chrome trace-event JSON (Perfetto-loadable) of one task's run here; "
                  "its stall report goes to stderr and stdout is unaffected");
  flags.AddInt("trace-task", 0, "plan index of the task --trace-out covers (default 0)");
  flags.AddBool("oracle", false,
                "run the clairvoyant oracle on every task (DESIGN.md 5k): print a \"% of "
                "clairvoyant optimum\" gap table after the output and add an oracle block to "
                "each JSON result");
}

ObserveOptions ReadObserveFlags(const FlagParser& flags) {
  return {.jobs = static_cast<int>(flags.GetInt("jobs")),
          .trace_out = flags.GetString("trace-out"),
          .trace_task = flags.GetInt("trace-task"),
          .oracle = flags.GetBool("oracle")};
}

void PrintOracleTable(const ExperimentPlan& plan, const std::vector<ExperimentResult>& results,
                      std::ostream& out) {
  PrintBanner(out, "Clairvoyant optimality gap (DESIGN.md 5k)");
  AsciiTable table({"task", "system", "% of optimum", "miss gap", "stall gap",
                    "policy stall (ms)", "oracle stall (ms)"});
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& result = results[i];
    if (!result.oracle_enabled) {
      continue;
    }
    std::string label = std::to_string(i);
    for (const std::string& tag : plan.tasks()[i].tags) {
      label += " " + tag;
    }
    const OracleReport& o = result.oracle;
    table.AddRow({label, result.system, AsciiTable::Num(o.pct_of_clairvoyant, 1),
                  AsciiTable::Num(o.miss_gap, 3), AsciiTable::Num(o.stall_gap, 3),
                  AsciiTable::Num(o.policy_stall_s * 1e3, 1),
                  AsciiTable::Num(o.oracle_stall_s * 1e3, 1)});
  }
  table.Print(out);
}

int RunObserved(const std::string& program, ExperimentPlan& plan, const ObserveOptions& options,
                std::ostream& gap_out, const RenderResultsFn& render) {
  const bool traced = !options.trace_out.empty();
  if (traced && (options.trace_task < 0 ||
                 static_cast<size_t>(options.trace_task) >= plan.tasks().size())) {
    std::cerr << "error: --trace-task " << options.trace_task << " out of range (plan has "
              << plan.tasks().size() << " tasks)\n";
    return 1;
  }
  if (options.oracle) {
    for (ExperimentTask& task : plan.mutable_tasks()) {
      task.options.oracle = true;
    }
  }
  TraceRecorder recorder;
  RunnerOptions runner;
  runner.jobs = options.jobs;
  if (traced) {
    runner.trace = &recorder;
    runner.trace_task = static_cast<size_t>(options.trace_task);
  }
  const std::vector<ExperimentResult> results = RunPlan(plan, runner);

  if (const int code = render(results); code != 0) {
    return code;
  }
  if (options.oracle) {
    PrintOracleTable(plan, results, gap_out);
  }
  if (traced) {
    const std::string process_name = program + " [" + std::to_string(runner.trace_task) +
                                     "] " + plan.tasks()[runner.trace_task].system;
    if (!WriteChromeTraceFile(recorder, process_name, options.trace_out)) {
      return 1;
    }
    // The stall report goes to stderr so stdout stays byte-identical to an untraced run.
    std::cerr << "trace: " << recorder.events().size() << " events -> " << options.trace_out
              << " (load in ui.perfetto.dev or chrome://tracing)\n"
              << RenderStallReport(recorder.stall());
  }
  return 0;
}

}  // namespace fmoe
