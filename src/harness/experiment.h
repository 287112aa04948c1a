// The experiment runner: RunExperiment serves every protocol the figure benches, fmoe_sim and
// the tests use, from one ExperimentTask that says
//   * where the requests come from (RequestSource): the paper's offline 7:3 split (§6.1),
//     whose history warms the policy (expert-map store / EAM) and the cache before the test
//     requests are measured; a generated Azure-like arrival trace (§6.3); or a given request
//     list (a loaded CSV, a burst trace). Trace and list runs start cold;
//   * how they are served (Serving): lockstep batches of options.batch_size, each to
//     completion in arrival order (batch 1 is FIFO replay), or the continuous-batching
//     scheduler;
//   * on how many replicas (options.replicas, routed by options.router_policy) and under which
//     admission policy (options.admission).
// Plans of tasks (plan.h) run on the deterministic parallel runner (runner.h).
#ifndef FMOE_SRC_HARNESS_EXPERIMENT_H_
#define FMOE_SRC_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/tiered_store.h"
#include "src/core/fmoe_policy.h"
#include "src/harness/systems.h"
#include "src/memsim/gpu.h"
#include "src/oracle/oracle.h"
#include "src/serving/cluster.h"
#include "src/serving/engine.h"
#include "src/serving/metrics.h"
#include "src/serving/scheduler.h"
#include "src/serving/trace.h"
#include "src/workload/workload.h"

namespace fmoe {

class TraceRecorder;

struct ExperimentOptions {
  ModelConfig model;
  DatasetProfile dataset;
  size_t history_requests = 140;
  size_t test_requests = 48;
  int batch_size = 1;
  int prefetch_distance = 3;        // d = 3, the paper's profiled optimum.
  int gpu_count = 6;                // Paper testbed: six RTX 3090s.
  uint64_t cache_bytes = 0;         // Expert-cache budget; 0 => cache_fraction of all experts.
  double cache_fraction = 0.22;
  int max_decode_tokens = 48;       // Speed cap on generation length; <= 0 keeps the dataset's.
  uint64_t seed = 42;
  size_t store_capacity = 512;      // fMoE map-store capacity for experiments.
  bool enable_score_log = false;    // Per-iteration similarity log (Fig. 8).
  bool keep_iteration_records = false;
  // Background matcher-worker model (see EngineConfig): 0 = instantaneous decisions (the
  // historical semantics), 1 = matcher running at the modeled search throughput.
  double matcher_latency_scale = 0.0;
  int matcher_queue_depth = 32;
  // Engine knobs the design-ablation experiments sweep (EngineConfig pass-throughs; the
  // defaults match EngineConfig's, so untouched options change nothing).
  double frequency_decay = 0.6;  // Per-iteration aging of cache hit frequencies.
  PlacementStrategy placement = PlacementStrategy::kRoundRobin;
  // Mixed-precision extension knob (fMoE-family systems only; see FmoeOptions).
  double low_precision_threshold = 0.0;
  // Expert Map Store column precision (fMoE-family systems; DESIGN.md §5g). fp16/int8 trade
  // tolerance-bounded match accuracy for a 2×/4× smaller Fig. 16 store footprint.
  MapPrecision map_precision = MapPrecision::kFp32;
  // Multi-tier store configuration (DESIGN.md §5h). With nvme_backing off (the default) the
  // infinite host pool is every expert's home and the other tier knobs, except
  // kv_bytes_per_token, are inert.
  TierConfig tier;
  // fMoE-family tier-aware prefetch: top-N scored-but-not-selected map candidates staged
  // NVMe→host per matched layer. No-op unless tier.nvme_backing is on.
  int host_stage_candidates = 0;
  // Semantic-cluster shard count for the fMoE Expert Map Store (DESIGN.md §5i). 1 replays
  // the unsharded store byte-identically.
  int map_shards = 1;
  // Admission policy + controller knobs (DESIGN.md §5j), the one place a run reads them:
  // lockstep runs give each replica its own controller, scheduled runs hand them to the
  // scheduler. Closed-loop policies need arrivals (a trace or given-request source). The
  // default open-loop policy replays every legacy path byte-identically.
  AdmissionOptions admission;
  // Cluster knobs: replicas > 1 routes a trace or given-request source across independent
  // engines, one request at a time. At replicas = 1 the router and memory mode are inert.
  int replicas = 1;
  RouterPolicy router_policy = RouterPolicy::kRoundRobin;
  ClusterMemoryMode cluster_memory = ClusterMemoryMode::kReplicate;
  // Optional virtual-time trace recorder (not owned; must outlive the run). Pure observer:
  // attaching one changes nothing about the run. On the 7:3 split the warmup phase resets it,
  // so the recorded trace covers exactly the measured requests.
  TraceRecorder* trace = nullptr;
  // Clairvoyant oracle (DESIGN.md §5k): record the gate-decision tape and compute the
  // Belady/prefetch-timeline optimality gap into ExperimentResult::oracle. Pure observer —
  // every non-oracle field of the result (and therefore every golden report) is
  // byte-identical whether this is on or off.
  bool oracle = false;
};

struct ExperimentResult {
  std::string system;
  double mean_ttft = 0.0;
  double mean_tpot = 0.0;
  double hit_rate = 0.0;
  double mean_e2e = 0.0;
  uint64_t iterations = 0;
  LatencyBreakdown breakdown;
  DeferredPipelineStats deferred;  // Pub-sub pipeline counters for the measured phase.
  double cache_capacity_gb = 0.0;
  double cache_used_gb = 0.0;  // Residency at the end of the run.
  std::vector<double> request_latencies;  // End-to-end per request (Fig. 10 CDF).
  std::vector<IterationRecord> iteration_records;
  std::vector<FmoePolicy::IterationScoreSample> score_log;
  double mean_semantic_score = 0.0;    // fMoE-family systems only.
  double mean_trajectory_score = 0.0;  // fMoE-family systems only.
  double low_precision_share = 0.0;    // Share of expert servings at reduced precision.
  // Scheduled runs only: continuous-batching counters and the total output tokens of the
  // completed requests (for SchedulerStats::Throughput).
  SchedulerStats scheduler_stats;
  uint64_t scheduled_tokens = 0;
  // Multi-tier runs only (options.tier.nvme_backing): tier movement counters plus host-pool
  // occupancy. tier_enabled is false without NVMe backing (the report omits the block).
  bool tier_enabled = false;
  TierStats tier;
  double host_capacity_gb = 0.0;
  double host_used_gb = 0.0;
  // Per-replica stats and the aggregate makespan/throughput summary, filled on every run.
  // cluster_enabled is true only at replicas > 1, so single-engine reports omit the block.
  bool cluster_enabled = false;
  ClusterSummary cluster;
  // Closed-loop runs only (a non-open-loop options.admission policy): the active policy and
  // the conservation counters, merged across replicas.
  // admission_enabled is false on open-loop runs, so legacy reports stay byte-identical.
  bool admission_enabled = false;
  AdmissionPolicyKind admission_policy = AdmissionPolicyKind::kOpenLoop;
  AdmissionCounters admission;
  // Oracle runs only (options.oracle): the clairvoyant optimality-gap report, merged across
  // replicas on cluster runs. oracle_enabled is false by default, so legacy reports stay
  // byte-identical (the report omits the block).
  bool oracle_enabled = false;
  OracleReport oracle;
};

// Where a task's requests come from.
enum class RequestSource {
  kSplit,     // GenerateSplit(options): the history warms the engine, the test requests are
              // measured.
  kTrace,     // `request_count` requests of the generated arrival trace `trace`.
  kRequests,  // The given `requests`, sorted by arrival time.
};

// How a task's requests are served.
enum class Serving {
  // Batches of options.batch_size consecutive requests, each served to completion. Routing
  // (replicas > 1) and closed-loop admission decide per request, so they need batch size 1.
  kLockstep,
  // The continuous-batching scheduler: `scheduler` sets its batch limit and queue discipline.
  // End-to-end latencies are reported in completion order.
  kContinuous,
};

// One experiment. The split serves only lockstep on one replica, and continuous batching
// only one replica; RunExperiment checks both. Every member has a default initializer, so a
// designated initializer may omit any of them.
struct ExperimentTask {
  std::string system{};
  ExperimentOptions options{};
  RequestSource source = RequestSource::kSplit;
  TraceProfile trace = TraceProfile();  // kTrace only.
  size_t request_count = 0;             // kTrace only.
  std::vector<Request> requests{};      // kRequests only.
  Serving serving = Serving::kLockstep;
  // kContinuous only. Its admission field is not read: admission comes from
  // options.admission.
  SchedulerOptions scheduler{};
  // Free-form "key=value" labels benches use to locate results in a plan's ordered output
  // (e.g. "model=Mixtral-8x7B", "system=fMoE", "d=3").
  std::vector<std::string> tags{};

  bool HasTag(const std::string& tag) const;
};

// Runs one task on freshly built engines and returns its metrics. With several replicas the
// per-replica results are pooled: counters add and every mean is recomputed over the pooled
// population, so one replica pools to exactly its own result. Lockstep latencies are in
// arrival order; requests shed by admission contribute a rejection, not a latency. Aborts
// with an FMOE_CHECK on a combination no protocol defines, or when an engine's transfer/tier
// bookkeeping or an admission ledger (arrived == admitted + rejected) is inconsistent at the
// end of the run.
ExperimentResult RunExperiment(const ExperimentTask& task);

// One serving engine as RunExperiment builds it, with the system (policy) it serves.
// `index` is the replica number among options.replicas: with several replicas each engine
// gets a "replica<i>/" trace-track prefix, only replica 0 keeps options.trace, and
// ClusterMemoryMode::kPartition splits the cache budget. Exposed for tools that need the
// engine itself, such as fmoe_sim --save-store exporting a warmed map store.
struct Replica {
  SystemSpec spec;
  std::unique_ptr<ServingEngine> engine;
};
Replica MakeReplica(const std::string& system, const ExperimentOptions& options, int index);

// The offline 7:3 protocol's requests, drawn from options.dataset under the
// max_decode_tokens cap: the first `history_requests` draws are the history that warms the
// policy, the next `test_requests` are served and measured.
WorkloadSplit GenerateSplit(const ExperimentOptions& options);

// Resolves the cache budget an options struct implies, in bytes.
uint64_t ResolveCacheBytes(const ExperimentOptions& options);

}  // namespace fmoe

#endif  // FMOE_SRC_HARNESS_EXPERIMENT_H_
