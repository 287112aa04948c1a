// fmoe_sim — command-line driver for the fMoE serving simulator.
//
// Runs the paper's offline (7:3) or online (trace replay) protocol, or the continuous-batching
// scheduler, for any registered system and prints a table, JSON, or CSV. The systems run as a
// declarative ExperimentPlan through the shared front end (src/harness/observe.h): --jobs only
// changes wall-clock time, never output; --trace-out and --oracle report on stderr.
// Examples:
//
//   fmoe_sim --model mixtral --system fMoE
//   fmoe_sim --model qwen --system all --format csv --jobs 4
//   fmoe_sim --model phi --mode online --requests 64 --trace-rate 0.1 --format json
//   fmoe_sim --model mixtral --system fMoE --save-store /tmp/mixtral.store
#include <fstream>
#include <iostream>
#include <vector>

#include "src/core/fmoe_policy.h"
#include "src/core/map_store_io.h"
#include "src/harness/experiment.h"
#include "src/harness/observe.h"
#include "src/harness/plan.h"
#include "src/harness/report.h"
#include "src/harness/systems.h"
#include "src/workload/trace_io.h"
#include "src/util/flags.h"
#include "src/util/table.h"

namespace {

using namespace fmoe;

bool ResolveModel(const std::string& name, ModelConfig* model) {
  if (name == "mixtral") {
    *model = MixtralConfig();
  } else if (name == "qwen") {
    *model = QwenMoeConfig();
  } else if (name == "phi") {
    *model = PhiMoeConfig();
  } else if (name == "tiny") {
    *model = TinyTestConfig();
  } else {
    return false;
  }
  return true;
}

bool ResolveDataset(const std::string& name, DatasetProfile* dataset) {
  if (name == "lmsys") {
    *dataset = LmsysLikeProfile();
  } else if (name == "sharegpt") {
    *dataset = ShareGptLikeProfile();
  } else {
    return false;
  }
  return true;
}

bool ParseDiscipline(const std::string& name, SchedulerOptions::QueueDiscipline* discipline) {
  if (name == "fcfs") {
    *discipline = SchedulerOptions::QueueDiscipline::kFcfs;
  } else if (name == "sjf") {
    *discipline = SchedulerOptions::QueueDiscipline::kShortestJobFirst;
  } else {
    return false;
  }
  return true;
}

// The flags that are not knobs of the run itself: what to run, where its output goes, and the
// values kept in command-line units until main() converts them.
struct ToolFlags {
  std::string system;
  std::string mode;
  std::string format;
  bool latencies = false;
  std::string save_store;
  std::string trace_csv;
  std::string export_trace;
  std::string output;
  double cache_gb = 0.0;
  double host_capacity_gb = 0.0;
  double nvme_gbps = 0.0;
  double nvme_latency_us = 0.0;
  double slo_ms = 0.0;
};

void PrintTable(const std::vector<ExperimentResult>& results, std::ostream& out) {
  AsciiTable table({"system", "TTFT (ms)", "TPOT (ms)", "hit rate (%)", "e2e (s)",
                    "cache used/cap (GiB)"});
  for (const ExperimentResult& r : results) {
    table.AddRow({r.system, AsciiTable::Num(r.mean_ttft * 1e3, 1),
                  AsciiTable::Num(r.mean_tpot * 1e3, 2), AsciiTable::Num(r.hit_rate * 100, 1),
                  AsciiTable::Num(r.mean_e2e, 2),
                  AsciiTable::Num(r.cache_used_gb, 1) + " / " +
                      AsciiTable::Num(r.cache_capacity_gb, 1)});
  }
  table.Print(out);
}

// Everything fmoe_sim does with a finished run: the optional store export, then the results
// in --format to --output (default stdout). Returns the process exit code.
int Render(const ToolFlags& tool, const ExperimentOptions& options,
           const std::vector<ExperimentResult>& results) {
  // Optional store export: warm a fresh fMoE engine on the 7:3 split's history, then persist
  // its store.
  if (!tool.save_store.empty()) {
    ExperimentOptions store_options = options;
    store_options.replicas = 1;
    Replica replica = MakeReplica("fMoE", store_options, 0);
    replica.engine->WarmupWithHistory(GenerateSplit(options).history);
    const auto* policy = dynamic_cast<const FmoePolicy*>(replica.spec.policy.get());
    const StoreIoResult io = SaveStoreToFile(policy->store(), tool.save_store);
    if (!io.ok) {
      std::cerr << "error: saving store failed: " << io.error << "\n";
      return 1;
    }
    std::cerr << "saved " << io.records << " expert maps (" << io.bytes << " bytes) to "
              << tool.save_store << "\n";
  }

  std::ofstream file;
  std::ostream* out = &std::cout;
  if (!tool.output.empty()) {
    file.open(tool.output);
    if (!file) {
      std::cerr << "error: cannot open " << tool.output << "\n";
      return 1;
    }
    out = &file;
  }

  if (tool.format == "table") {
    PrintTable(results, *out);
  } else if (tool.format == "json") {
    WriteResultsJson(results, tool.latencies, *out);
  } else if (tool.format == "csv") {
    WriteResultsCsv(results, *out);
  } else {
    std::cerr << "error: unknown format '" << tool.format << "'\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentOptions options;
  SchedulerOptions sched;
  TraceProfile trace;
  ObserveOptions observe;
  ToolFlags tool;
  FlagParser flags("fmoe_sim", "fMoE expert-offloading serving simulator");
  flags.Add("model", &options.model, "mixtral", ResolveModel, "mixtral | qwen | phi | tiny",
            "model preset: mixtral | qwen | phi | tiny");
  flags.Add("dataset", &options.dataset, "lmsys", ResolveDataset, "lmsys | sharegpt",
            "prompt dataset: lmsys | sharegpt");
  flags.Add("system", &tool.system, "fMoE",
            "system to run, 'all' for the paper's five, or any registry name "
            "(see src/harness/systems.h)");
  flags.Add("mode", &tool.mode, "offline",
            "protocol: offline (7:3 split) | online (trace replay) | scheduled "
            "(continuous batching through the admission-controlled scheduler)");
  flags.Add("history", &options.history_requests, 80,
            "history requests used to warm the policy (offline mode)");
  flags.Add("requests", &options.test_requests, 24,
            "measured requests (test split or trace length)");
  flags.Add("batch", &options.batch_size, 1,
            "lockstep batch size (offline and online modes; must be 1 with --replicas > 1 "
            "or a closed-loop --admission-policy)");
  flags.Add("max-batch", &sched.max_batch_size, 4,
            "scheduled mode: continuous-batching lockstep batch limit");
  flags.Add("discipline", &sched.discipline, "fcfs", ParseDiscipline, "fcfs | sjf",
            "scheduled mode queue discipline: fcfs | sjf (shortest job first)");
  flags.Add("admission-policy", &options.admission.policy, "open-loop", ParseAdmissionPolicy,
            "open-loop | gradient",
            "admission control for online and scheduled runs: open-loop (fixed knobs, "
            "never rejects; the byte-identical default) | gradient (closed-loop AIMD on "
            "live stall-attribution signals; DESIGN.md 5j)");
  flags.Add("slo-ms", &tool.slo_ms, 0.0,
            "end-to-end latency objective in milliseconds; the gradient policy sheds "
            "queued requests whose wait already burns the budget (0 = no shedding)");
  flags.Add("admission-window-s", &options.admission.window_sec, 0.5,
            "signal window in virtual seconds for the gradient controller");
  flags.Add("admission-gain", &options.admission.gain, 0.5,
            "AIMD gain for the gradient controller (multiplicative decrease on cache "
            "thrash, additive increase on recovery)");
  flags.Add("admission-update-s", &options.admission.update_period_sec, 0.05,
            "gradient controller update cadence in virtual seconds");
  flags.Add("distance", &options.prefetch_distance, 3, "prefetch distance d in layers");
  flags.Add("max-decode", &options.max_decode_tokens, 32,
            "cap on decode tokens per request of the generated 7:3 split (0 = dataset "
            "default); online and CSV runs take the trace's lengths");
  flags.Add("store-capacity", &options.store_capacity, 512, "fMoE Expert Map Store capacity");
  flags.Add("map-precision", &options.map_precision, "fp32", ParseMapPrecision,
            "fp32 | fp16 | int8",
            "Expert Map Store column precision: fp32 | fp16 | int8 (fMoE-family "
            "systems; fp16/int8 shrink store memory 2x/4x at bounded match error)");
  flags.Add("gpus", &options.gpu_count, 6, "number of GPUs (parallel host links)");
  flags.Add("cache-gb", &tool.cache_gb, 0.0,
            "expert cache budget in GiB (0 = use --cache-fraction)");
  flags.Add("cache-fraction", &options.cache_fraction, 0.22,
            "cache budget as a fraction of all expert bytes");
  flags.Add("trace-rate", &trace.mean_arrival_rate, 0.08,
            "mean request arrival rate for online mode (req/s)");
  flags.Add("matcher-latency-scale", &options.matcher_latency_scale, 0.0,
            "background matcher-worker latency multiplier (0 = instantaneous policy "
            "decisions, 1 = modeled matcher speed)");
  flags.Add("matcher-queue-depth", &options.matcher_queue_depth, 32,
            "pending deferred-job bound (oldest dropped past it)");
  flags.Add("nvme-backing", &options.tier.nvme_backing, false,
            "experts' off-GPU home is NVMe (multi-tier store; DESIGN.md 5h). Off, host RAM "
            "holds every expert and the host-pool, NVMe and direct-path flags are inert");
  flags.Add("host-capacity-gb", &tool.host_capacity_gb, 0.0,
            "host-RAM staging pool budget in GiB (implies --nvme-backing when > 0; 0 "
            "with --nvme-backing = two-tier GPU<->NVMe)");
  flags.Add("nvme-gbps", &tool.nvme_gbps, 3.5, "NVMe link bandwidth in GB/s");
  flags.Add("nvme-latency-us", &tool.nvme_latency_us, 80.0,
            "NVMe link fixed latency in microseconds");
  flags.Add("direct-nvme-gpu", &options.tier.allow_direct_nvme_gpu, false,
            "allow the explicit NVMe->GPU direct path (default: all GPU fills stage "
            "through host RAM)");
  flags.Add("host-policy", &options.tier.host_policy, "LRU",
            "host-pool eviction policy: LRU | LFU | fMoE-PriorityLFU");
  flags.Add("kv-bytes-per-token", &options.tier.kv_bytes_per_token, 0.0,
            "GPU bytes reserved per in-flight token (KV-cache pressure shrinking the "
            "effective expert budget; 0 disables)");
  flags.Add("host-stage-candidates", &options.host_stage_candidates, 0,
            "fMoE-family tier-aware prefetch: top-N scored-but-not-selected map candidates "
            "staged NVMe->host per matched layer (multi-tier runs only)");
  flags.Add("map-shards", &options.map_shards, 1,
            "semantic-cluster shards for the fMoE Expert Map Store (DESIGN.md 5i); 1 "
            "replays the unsharded store byte-identically");
  flags.Add("replicas", &options.replicas, 1,
            "serving-engine replicas (online mode only); 1 replays the single-engine "
            "online protocol byte-identically");
  flags.Add("router-policy", &options.router_policy, "round-robin", ParseRouterPolicy,
            "round-robin | least-loaded | semantic-affinity",
            "cluster request router: round-robin | least-loaded | semantic-affinity "
            "(used when --replicas > 1)");
  flags.Add("cluster-memory", &options.cluster_memory, "replicate", ParseClusterMemoryMode,
            "replicate | partition",
            "per-replica expert-cache budget: replicate (full budget each) | partition "
            "(single-node budget split across replicas)");
  flags.Add("seed", &options.seed, 42,
            "random seed (all components are deterministic given this)");
  flags.Add("format", &tool.format, "table", "output format: table | json | csv");
  flags.Add("latencies", &tool.latencies, false,
            "include per-request latencies in JSON output");
  flags.Add("save-store", &tool.save_store, "",
            "after an fMoE run, save its Expert Map Store here");
  flags.Add("trace-csv", &tool.trace_csv, "",
            "serve the requests in this CSV instead of generated ones, per --mode "
            "(offline/online: lockstep in arrival order; scheduled: continuous "
            "batching). Columns: request_id,arrival_time_s,prompt_tokens,decode_tokens"
            "[,cluster,seed]");
  flags.Add("export-trace", &tool.export_trace, "",
            "write the generated online trace to this CSV and exit (for editing/replay)");
  AddObserveFlags(flags, &observe);
  flags.Add("output", &tool.output, "", "write results to this file instead of stdout");

  int exit_code = 0;
  if (!flags.ParseCommandLine(argc, argv, &exit_code)) {
    return exit_code;
  }

  // Command-line units to the options' units.
  options.cache_bytes = static_cast<uint64_t>(tool.cache_gb * (1ULL << 30));
  options.tier.nvme_backing = options.tier.nvme_backing || tool.host_capacity_gb > 0.0;
  options.tier.host_capacity_bytes =
      static_cast<uint64_t>(tool.host_capacity_gb * static_cast<double>(1ULL << 30));
  options.tier.nvme_link.bandwidth_bytes_per_sec = tool.nvme_gbps * 1e9;
  options.tier.nvme_link.fixed_latency_sec = tool.nvme_latency_us * 1e-6;
  options.admission.slo_sec = tool.slo_ms * 1e-3;

  if (options.map_shards < 1) {
    std::cerr << "error: --map-shards must be >= 1\n";
    return 1;
  }
  if (options.replicas < 1) {
    std::cerr << "error: --replicas must be >= 1\n";
    return 1;
  }
  if (sched.max_batch_size < 1) {
    std::cerr << "error: --max-batch must be >= 1\n";
    return 1;
  }
  const bool online = tool.mode == "online";
  const bool scheduled = tool.mode == "scheduled";
  if (!online && !scheduled && tool.mode != "offline") {
    std::cerr << "error: unknown mode '" << tool.mode << "'\n";
    return 1;
  }
  if (options.replicas > 1 && !online) {
    std::cerr << "error: --replicas > 1 needs --mode online (the cluster protocol routes an "
                 "arrival trace)\n";
    return 1;
  }

  const std::vector<std::string> systems =
      tool.system == "all" ? PaperSystemNames() : std::vector<std::string>{tool.system};

  if (!tool.export_trace.empty()) {
    TraceGenerator generator(trace, options.dataset, options.seed);
    const std::vector<Request> requests = generator.Generate(options.test_requests);
    const TraceIoResult io = WriteTraceCsvToFile(requests, tool.export_trace);
    if (!io.ok) {
      std::cerr << "error: " << io.error << "\n";
      return 1;
    }
    std::cerr << "wrote " << io.rows << " requests to " << tool.export_trace << "\n";
    return 0;
  }

  // Custom trace replay: the CSV's requests replace the generated ones, served per --mode.
  std::vector<Request> csv_requests;
  const bool use_csv = !tool.trace_csv.empty();
  if (use_csv) {
    const TraceIoResult io = ReadTraceCsvFromFile(tool.trace_csv, options.dataset, &csv_requests);
    if (!io.ok) {
      std::cerr << "error: reading trace failed: " << io.error << "\n";
      return 1;
    }
    std::cerr << "replaying " << io.rows << " requests from " << tool.trace_csv << "\n";
  }

  ExperimentPlan plan(options.seed);
  for (const std::string& system : systems) {
    ExperimentTask task{.system = system, .options = options, .tags = {"system=" + system}};
    if (use_csv) {
      task.source = RequestSource::kRequests;
      task.requests = csv_requests;
    } else if (online || scheduled) {
      task.source = RequestSource::kTrace;
      task.trace = trace;
      task.request_count = options.test_requests;
    }
    if (scheduled) {
      task.serving = Serving::kContinuous;
      task.scheduler = sched;
    }
    plan.Add(std::move(task));
  }
  return RunObserved("fmoe_sim", plan, observe, std::cerr,
                     [&](const std::vector<ExperimentResult>& results) {
                       return Render(tool, options, results);
                     });
}
