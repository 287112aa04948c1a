// Experiment runners reproducing the paper's evaluation methodology (§6.1):
//   * RunOffline — standard 7:3 protocol: history requests warm the policy (expert-map store /
//     EAM) and the cache, then the test requests are served and measured.
//   * RunReplay  — cold start (empty history): a given request sequence is served in order on
//     one engine; end-to-end latencies include queueing. RunOnline is RunReplay over an
//     Azure-like arrival trace (§6.3).
//   * RunScheduledReplay — the same cold start through a continuous-batching scheduler with
//     an admission policy; RunScheduled wraps it over a generated trace.
//   * RunCluster — a generated trace routed across several replica engines.
// Every figure bench, fmoe_sim and the integration tests are thin loops over these calls.
#ifndef FMOE_SRC_HARNESS_EXPERIMENT_H_
#define FMOE_SRC_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/tiered_store.h"
#include "src/core/fmoe_policy.h"
#include "src/harness/systems.h"
#include "src/memsim/gpu.h"
#include "src/moe/cost_model.h"
#include "src/moe/gate_simulator.h"
#include "src/oracle/oracle.h"
#include "src/serving/cluster.h"
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
  // Multi-tier store configuration (DESIGN.md §5h). The default (nvme_backing off) replays
  // the legacy two-tier GPU↔host path bit-identically.
  TierConfig tier;
  // fMoE-family tier-aware prefetch: top-N scored-but-not-selected map candidates staged
  // NVMe→host per matched layer. No-op unless tier.nvme_backing is on.
  int host_stage_candidates = 0;
  // Semantic-cluster shard count for the fMoE Expert Map Store (DESIGN.md §5i). 1 replays
  // the unsharded store byte-identically.
  int map_shards = 1;
  // Admission policy + controller knobs (DESIGN.md §5j) for the runners that queue requests:
  // RunCluster reads this directly (one controller per replica); RunScheduled takes its
  // SchedulerOptions parameter as the authority (set sched.admission — fmoe_sim wires both
  // from the same flags). The default open-loop policy replays every legacy path
  // byte-identically.
  AdmissionOptions admission;
  // Cluster knobs (RunCluster only; ignored by the single-engine runners). replicas = 1
  // replays RunOnline byte-identically regardless of router/memory settings.
  int replicas = 1;
  RouterPolicy router_policy = RouterPolicy::kRoundRobin;
  ClusterMemoryMode cluster_memory = ClusterMemoryMode::kReplicate;
  GateProfile gate;
  HardwareProfile hardware;
  // Optional virtual-time trace recorder (not owned; must outlive the run). Pure observer:
  // attaching one changes nothing about the run. For RunOffline the warmup phase resets it,
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
  // Scheduled runs only (RunScheduled): continuous-batching counters and the total output
  // tokens of the completed requests (for SchedulerStats::Throughput).
  SchedulerStats scheduler_stats;
  uint64_t scheduled_tokens = 0;
  // Multi-tier runs only (options.tier.nvme_backing): tier movement counters plus host-pool
  // occupancy. tier_enabled is false on legacy two-tier runs (the report omits the block).
  bool tier_enabled = false;
  TierStats tier;
  double host_capacity_gb = 0.0;
  double host_used_gb = 0.0;
  // Cluster runs only (RunCluster with replicas > 1): per-replica stats and the aggregate
  // makespan/throughput summary. cluster_enabled is false on single-replica runs (the
  // report omits the block and the result is byte-identical to RunOnline).
  bool cluster_enabled = false;
  ClusterSummary cluster;
  // Closed-loop runs only (a non-open-loop admission policy on the scheduled or cluster
  // runners): the active policy and the conservation counters, merged across replicas.
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

ExperimentResult RunOffline(const std::string& system_name, const ExperimentOptions& options);

ExperimentResult RunOnline(const std::string& system_name, const ExperimentOptions& options,
                           const TraceProfile& trace, size_t request_count);

// Continuous-batching protocol: requests from the trace are admitted by a
// ContinuousBatchScheduler (batch limit + queue discipline + admission policy from `sched`)
// instead of the online protocol's FIFO one-at-a-time loop. request_latencies holds
// end-to-end latencies in completion order (what the scheduler drains), not arrival order;
// with a shedding admission policy it covers served requests only.
ExperimentResult RunScheduled(const std::string& system_name, const ExperimentOptions& options,
                              const TraceProfile& trace, size_t request_count,
                              const SchedulerOptions& sched);

// RunScheduled over a caller-supplied request sequence (must be sorted by arrival time) —
// e.g. a burst/overload trace from src/workload/burst.h or a loaded CSV.
ExperimentResult RunScheduledReplay(const std::string& system_name,
                                    const ExperimentOptions& options,
                                    const std::vector<Request>& requests,
                                    const SchedulerOptions& sched);

// Multi-replica cluster protocol (DESIGN.md §5i): the trace's requests are routed across
// `options.replicas` independent engines by `options.router_policy` and served in arrival
// order. Per-request latencies are reported in arrival order (merged across replicas); the
// merged means pool every replica's per-request values, and counters (tier block included)
// add. With replicas == 1 this is RunOnline, bit for bit. A non-open-loop options.admission
// policy runs one controller per replica (composing with the router): each replica's
// controller sees only its routed arrivals, may shed them against the SLO, and drives that
// engine's prefetch distance; latencies then cover admitted requests only.
ExperimentResult RunCluster(const std::string& system_name, const ExperimentOptions& options,
                            const TraceProfile& trace, size_t request_count);

// Replay protocol: serves a caller-supplied request sequence (e.g. loaded from a trace CSV)
// in order on one engine, cold-started like RunOnline.
ExperimentResult RunReplay(const std::string& system_name, const ExperimentOptions& options,
                           const std::vector<Request>& requests);

// Resolves the cache budget an options struct implies, in bytes.
uint64_t ResolveCacheBytes(const ExperimentOptions& options);

}  // namespace fmoe

#endif  // FMOE_SRC_HARNESS_EXPERIMENT_H_
