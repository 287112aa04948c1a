#include "bench/bench_common.h"

#include <fstream>

#include "src/util/flags.h"

namespace fmoe {
namespace bench {

bool ParseBenchArgs(int argc, const char* const* argv, const std::string& program,
                    const std::string& description, ObserveOptions* observe,
                    std::string* out_json, int* exit_code) {
  FlagParser flags(program, description);
  if (observe != nullptr) {
    AddObserveFlags(flags, observe);
  }
  flags.Add("out_json", out_json, "",
            "also write a machine-readable report (plan + results) to this path");
  return flags.ParseCommandLine(argc, argv, exit_code);
}

bool ParseGateArgs(int argc, const char* const* argv, const std::string& program,
                   const std::string& description, bool with_jobs, GateArgs* args,
                   int* exit_code) {
  FlagParser flags(program, description);
  flags.Add("small", &args->small, false,
            "CI smoke configuration: a smaller run of the same checks");
  flags.Add("json", &args->json, "", "also write the results as JSON to this path");
  if (with_jobs) {
    flags.Add("jobs", &args->jobs, 1,
              "worker threads for the plan runner (0 = one per hardware thread); output is "
              "byte-identical for any value");
  }
  return flags.ParseCommandLine(argc, argv, exit_code);
}

int BenchMain(int argc, const char* const* argv, const std::string& program,
              const std::string& description, const DeclareFn& declare,
              const RenderFn& render) {
  ObserveOptions observe;
  std::string out_json;
  int exit_code = 0;
  if (!ParseBenchArgs(argc, argv, program, description, &observe, &out_json, &exit_code)) {
    return exit_code;
  }
  ExperimentPlan plan;
  declare(plan);
  return RunObserved(program, plan, observe, std::cout,
                     [&](const std::vector<ExperimentResult>& results) {
                       render(results, std::cout);
                       if (out_json.empty()) {
                         return 0;
                       }
                       const bool ok = WriteJsonFile(out_json, [&](std::ostream& out) {
                         WritePlanReportJson(plan, results, /*include_latencies=*/false, out);
                       });
                       return ok ? 0 : 1;
                     });
}

bool WriteJsonFile(const std::string& path, const std::function<void(std::ostream&)>& write) {
  std::ofstream file(path);
  if (!file) {
    std::cerr << "error: cannot open " << path << " for writing\n";
    return false;
  }
  write(file);
  if (!file) {
    std::cerr << "error: writing " << path << " failed\n";
    return false;
  }
  return true;
}

}  // namespace bench
}  // namespace fmoe
