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
int Render(const FlagParser& flags, const ExperimentOptions& options,
           const std::vector<ExperimentResult>& results) {
  // Optional store export: warm a fresh fMoE engine on the history, then persist its store.
  const std::string store_path = flags.GetString("save-store");
  if (!store_path.empty()) {
    ExperimentOptions store_options = options;
    store_options.replicas = 1;
    Replica replica = MakeReplica("fMoE", store_options, 0);
    WorkloadGenerator generator(options.dataset, options.seed);
    std::vector<Request> history = generator.Generate(options.history_requests);
    for (Request& request : history) {
      if (options.max_decode_tokens > 0) {
        request.decode_tokens = std::min(request.decode_tokens, options.max_decode_tokens);
      }
    }
    replica.engine->WarmupWithHistory(history);
    const auto* policy = dynamic_cast<const FmoePolicy*>(replica.spec.policy.get());
    const StoreIoResult io = SaveStoreToFile(policy->store(), store_path);
    if (!io.ok) {
      std::cerr << "error: saving store failed: " << io.error << "\n";
      return 1;
    }
    std::cerr << "saved " << io.records << " expert maps (" << io.bytes << " bytes) to "
              << store_path << "\n";
  }

  std::ofstream file;
  std::ostream* out = &std::cout;
  if (!flags.GetString("output").empty()) {
    file.open(flags.GetString("output"));
    if (!file) {
      std::cerr << "error: cannot open " << flags.GetString("output") << "\n";
      return 1;
    }
    out = &file;
  }

  const std::string format = flags.GetString("format");
  if (format == "table") {
    PrintTable(results, *out);
  } else if (format == "json") {
    WriteResultsJson(results, flags.GetBool("latencies"), *out);
  } else if (format == "csv") {
    WriteResultsCsv(results, *out);
  } else {
    std::cerr << "error: unknown format '" << format << "'\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags("fmoe_sim", "fMoE expert-offloading serving simulator");
  flags.AddString("model", "mixtral", "model preset: mixtral | qwen | phi | tiny");
  flags.AddString("dataset", "lmsys", "prompt dataset: lmsys | sharegpt");
  flags.AddString("system", "fMoE",
                  "system to run, 'all' for the paper's five, or any registry name "
                  "(see src/harness/systems.h)");
  flags.AddString("mode", "offline",
                  "protocol: offline (7:3 split) | online (trace replay) | scheduled "
                  "(continuous batching through the admission-controlled scheduler)");
  flags.AddInt("history", 80, "history requests used to warm the policy (offline mode)");
  flags.AddInt("requests", 24, "measured requests (test split or trace length)");
  flags.AddInt("batch", 1,
               "lockstep batch size (offline and online modes; must be 1 with --replicas > 1 "
               "or a closed-loop --admission-policy)");
  flags.AddInt("max-batch", 4, "scheduled mode: continuous-batching lockstep batch limit");
  flags.AddString("discipline", "fcfs",
                  "scheduled mode queue discipline: fcfs | sjf (shortest job first)");
  flags.AddString("admission-policy", "open-loop",
                  "admission control for online and scheduled runs: open-loop (fixed knobs, "
                  "never rejects; the byte-identical default) | gradient (closed-loop AIMD on "
                  "live stall-attribution signals; DESIGN.md 5j)");
  flags.AddDouble("slo-ms", 0.0,
                  "end-to-end latency objective in milliseconds; the gradient policy sheds "
                  "queued requests whose wait already burns the budget (0 = no shedding)");
  flags.AddDouble("admission-window-s", 0.5,
                  "signal window in virtual seconds for the gradient controller");
  flags.AddDouble("admission-gain", 0.5,
                  "AIMD gain for the gradient controller (multiplicative decrease on cache "
                  "thrash, additive increase on recovery)");
  flags.AddDouble("admission-update-s", 0.05,
                  "gradient controller update cadence in virtual seconds");
  flags.AddInt("distance", 3, "prefetch distance d in layers");
  flags.AddInt("max-decode", 32,
               "cap on decode tokens per request of the generated 7:3 split (0 = dataset "
               "default); online and CSV runs take the trace's lengths");
  flags.AddInt("store-capacity", 512, "fMoE Expert Map Store capacity");
  flags.AddString("map-precision", "fp32",
                  "Expert Map Store column precision: fp32 | fp16 | int8 (fMoE-family "
                  "systems; fp16/int8 shrink store memory 2x/4x at bounded match error)");
  flags.AddInt("gpus", 6, "number of GPUs (parallel host links)");
  flags.AddDouble("cache-gb", 0.0, "expert cache budget in GiB (0 = use --cache-fraction)");
  flags.AddDouble("cache-fraction", 0.22, "cache budget as a fraction of all expert bytes");
  flags.AddDouble("trace-rate", 0.08, "mean request arrival rate for online mode (req/s)");
  flags.AddDouble("matcher-latency-scale", 0.0,
                  "background matcher-worker latency multiplier (0 = instantaneous policy "
                  "decisions, 1 = modeled matcher speed)");
  flags.AddInt("matcher-queue-depth", 32, "pending deferred-job bound (oldest dropped past it)");
  flags.AddBool("nvme-backing", false,
                "experts' off-GPU home is NVMe (multi-tier store; DESIGN.md 5h). Off, host RAM "
                "holds every expert and the host-pool, NVMe and direct-path flags are inert");
  flags.AddDouble("host-capacity-gb", 0.0,
                  "host-RAM staging pool budget in GiB (implies --nvme-backing when > 0; 0 "
                  "with --nvme-backing = two-tier GPU<->NVMe)");
  flags.AddDouble("nvme-gbps", 3.5, "NVMe link bandwidth in GB/s");
  flags.AddDouble("nvme-latency-us", 80.0, "NVMe link fixed latency in microseconds");
  flags.AddBool("direct-nvme-gpu", false,
                "allow the explicit NVMe->GPU direct path (default: all GPU fills stage "
                "through host RAM)");
  flags.AddString("host-policy", "LRU", "host-pool eviction policy: LRU | LFU | fMoE-PriorityLFU");
  flags.AddDouble("kv-bytes-per-token", 0.0,
                  "GPU bytes reserved per in-flight token (KV-cache pressure shrinking the "
                  "effective expert budget; 0 disables)");
  flags.AddInt("host-stage-candidates", 0,
               "fMoE-family tier-aware prefetch: top-N scored-but-not-selected map candidates "
               "staged NVMe->host per matched layer (multi-tier runs only)");
  flags.AddInt("map-shards", 1,
               "semantic-cluster shards for the fMoE Expert Map Store (DESIGN.md 5i); 1 "
               "replays the unsharded store byte-identically");
  flags.AddInt("replicas", 1,
               "serving-engine replicas (online mode only); 1 replays the single-engine "
               "online protocol byte-identically");
  flags.AddString("router-policy", "round-robin",
                  "cluster request router: round-robin | least-loaded | semantic-affinity "
                  "(used when --replicas > 1)");
  flags.AddString("cluster-memory", "replicate",
                  "per-replica expert-cache budget: replicate (full budget each) | partition "
                  "(single-node budget split across replicas)");
  flags.AddInt("seed", 42, "random seed (all components are deterministic given this)");
  flags.AddString("format", "table", "output format: table | json | csv");
  flags.AddBool("latencies", false, "include per-request latencies in JSON output");
  flags.AddString("save-store", "", "after an fMoE run, save its Expert Map Store here");
  flags.AddString("trace-csv", "",
                  "serve the requests in this CSV instead of generated ones, per --mode "
                  "(offline/online: lockstep in arrival order; scheduled: continuous "
                  "batching). Columns: request_id,arrival_time_s,prompt_tokens,decode_tokens"
                  "[,cluster,seed]");
  flags.AddString("export-trace", "",
                  "write the generated online trace to this CSV and exit (for editing/replay)");
  AddObserveFlags(flags);
  flags.AddString("output", "", "write results to this file instead of stdout");

  int exit_code = 0;
  if (!flags.ParseCommandLine(argc, argv, &exit_code)) {
    return exit_code;
  }

  ExperimentOptions options;
  if (!ResolveModel(flags.GetString("model"), &options.model)) {
    std::cerr << "error: unknown model '" << flags.GetString("model") << "'\n";
    return 1;
  }
  if (!ResolveDataset(flags.GetString("dataset"), &options.dataset)) {
    std::cerr << "error: unknown dataset '" << flags.GetString("dataset") << "'\n";
    return 1;
  }
  options.history_requests = static_cast<size_t>(flags.GetInt("history"));
  options.test_requests = static_cast<size_t>(flags.GetInt("requests"));
  options.batch_size = static_cast<int>(flags.GetInt("batch"));
  options.prefetch_distance = static_cast<int>(flags.GetInt("distance"));
  options.max_decode_tokens = static_cast<int>(flags.GetInt("max-decode"));
  options.store_capacity = static_cast<size_t>(flags.GetInt("store-capacity"));
  if (!ParseMapPrecision(flags.GetString("map-precision"), &options.map_precision)) {
    std::cerr << "error: unknown map precision '" << flags.GetString("map-precision")
              << "' (expected fp32 | fp16 | int8)\n";
    return 1;
  }
  options.gpu_count = static_cast<int>(flags.GetInt("gpus"));
  options.cache_bytes =
      static_cast<uint64_t>(flags.GetDouble("cache-gb") * (1ULL << 30));
  options.cache_fraction = flags.GetDouble("cache-fraction");
  options.matcher_latency_scale = flags.GetDouble("matcher-latency-scale");
  options.matcher_queue_depth = static_cast<int>(flags.GetInt("matcher-queue-depth"));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const double host_capacity_gb = flags.GetDouble("host-capacity-gb");
  options.tier.nvme_backing = flags.GetBool("nvme-backing") || host_capacity_gb > 0.0;
  options.tier.host_capacity_bytes =
      static_cast<uint64_t>(host_capacity_gb * static_cast<double>(1ULL << 30));
  options.tier.nvme_link.bandwidth_bytes_per_sec = flags.GetDouble("nvme-gbps") * 1e9;
  options.tier.nvme_link.fixed_latency_sec = flags.GetDouble("nvme-latency-us") * 1e-6;
  options.tier.allow_direct_nvme_gpu = flags.GetBool("direct-nvme-gpu");
  options.tier.host_policy = flags.GetString("host-policy");
  options.tier.kv_bytes_per_token = flags.GetDouble("kv-bytes-per-token");
  options.host_stage_candidates = static_cast<int>(flags.GetInt("host-stage-candidates"));
  options.map_shards = static_cast<int>(flags.GetInt("map-shards"));
  if (options.map_shards < 1) {
    std::cerr << "error: --map-shards must be >= 1\n";
    return 1;
  }
  options.replicas = static_cast<int>(flags.GetInt("replicas"));
  if (options.replicas < 1) {
    std::cerr << "error: --replicas must be >= 1\n";
    return 1;
  }
  if (!ParseRouterPolicy(flags.GetString("router-policy"), &options.router_policy)) {
    std::cerr << "error: unknown router policy '" << flags.GetString("router-policy")
              << "' (expected round-robin | least-loaded | semantic-affinity)\n";
    return 1;
  }
  if (!ParseClusterMemoryMode(flags.GetString("cluster-memory"), &options.cluster_memory)) {
    std::cerr << "error: unknown cluster memory mode '" << flags.GetString("cluster-memory")
              << "' (expected replicate | partition)\n";
    return 1;
  }
  if (!ParseAdmissionPolicy(flags.GetString("admission-policy"), &options.admission.policy)) {
    std::cerr << "error: unknown admission policy '" << flags.GetString("admission-policy")
              << "' (expected open-loop | gradient)\n";
    return 1;
  }
  options.admission.slo_sec = flags.GetDouble("slo-ms") * 1e-3;
  options.admission.window_sec = flags.GetDouble("admission-window-s");
  options.admission.gain = flags.GetDouble("admission-gain");
  options.admission.update_period_sec = flags.GetDouble("admission-update-s");
  SchedulerOptions sched;
  sched.max_batch_size = static_cast<int>(flags.GetInt("max-batch"));
  if (sched.max_batch_size < 1) {
    std::cerr << "error: --max-batch must be >= 1\n";
    return 1;
  }
  const std::string discipline = flags.GetString("discipline");
  if (discipline == "sjf") {
    sched.discipline = SchedulerOptions::QueueDiscipline::kShortestJobFirst;
  } else if (discipline != "fcfs") {
    std::cerr << "error: unknown discipline '" << discipline << "' (expected fcfs | sjf)\n";
    return 1;
  }

  std::vector<std::string> systems;
  if (flags.GetString("system") == "all") {
    systems = PaperSystemNames();
  } else {
    systems.push_back(flags.GetString("system"));
  }

  const std::string mode = flags.GetString("mode");
  const bool online = mode == "online";
  const bool scheduled = mode == "scheduled";
  if (!online && !scheduled && mode != "offline") {
    std::cerr << "error: unknown mode '" << mode << "'\n";
    return 1;
  }
  if (options.replicas > 1 && !online) {
    std::cerr << "error: --replicas > 1 needs --mode online (the cluster protocol routes an "
                 "arrival trace)\n";
    return 1;
  }

  TraceProfile trace;
  trace.mean_arrival_rate = flags.GetDouble("trace-rate");

  if (!flags.GetString("export-trace").empty()) {
    TraceGenerator generator(trace, options.dataset, options.seed);
    const std::vector<Request> requests = generator.Generate(options.test_requests);
    const TraceIoResult io = WriteTraceCsvToFile(requests, flags.GetString("export-trace"));
    if (!io.ok) {
      std::cerr << "error: " << io.error << "\n";
      return 1;
    }
    std::cerr << "wrote " << io.rows << " requests to " << flags.GetString("export-trace")
              << "\n";
    return 0;
  }

  // Custom trace replay: the CSV's requests replace the generated ones, served per --mode.
  std::vector<Request> csv_requests;
  const bool use_csv = !flags.GetString("trace-csv").empty();
  if (use_csv) {
    const TraceIoResult io =
        ReadTraceCsvFromFile(flags.GetString("trace-csv"), options.dataset, &csv_requests);
    if (!io.ok) {
      std::cerr << "error: reading trace failed: " << io.error << "\n";
      return 1;
    }
    std::cerr << "replaying " << io.rows << " requests from " << flags.GetString("trace-csv")
              << "\n";
  }

  ExperimentPlan plan(options.seed);
  for (const std::string& system : systems) {
    ExperimentTask task{.system = system, .options = options, .tags = {"system=" + system}};
    if (use_csv) {
      task.source = RequestSource::kRequests;
      task.requests = csv_requests;
    } else if (mode != "offline") {
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
  return RunObserved("fmoe_sim", plan, ReadObserveFlags(flags), std::cerr,
                     [&](const std::vector<ExperimentResult>& results) {
                       return Render(flags, options, results);
                     });
}
