// Virtual-time MoE serving engine.
//
// The engine executes the prefill + decode loop of the paper's §2.1 against the memsim
// hardware model: per layer it advances time by the attention cost, evaluates the (simulated)
// gate, invokes the offload policy's hooks, then serves every activated expert — a hit when its
// weights are resident and ready, otherwise an on-demand load over the expert's device link
// that stalls the iteration (§3.2 step 4). All five systems in the evaluation run on this one
// mechanism and differ only in the OffloadPolicy implementation and cache eviction algorithm.
#ifndef FMOE_SRC_SERVING_ENGINE_H_
#define FMOE_SRC_SERVING_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <set>
#include <vector>

#include "src/cache/expert_cache.h"
#include "src/cache/tiered_store.h"
#include "src/memsim/clock.h"
#include "src/memsim/gpu.h"
#include "src/moe/cost_model.h"
#include "src/moe/embedding.h"
#include "src/moe/gate_simulator.h"
#include "src/moe/model_config.h"
#include "src/obs/control_signals.h"
#include "src/obs/trace_recorder.h"
#include "src/oracle/gate_recorder.h"
#include "src/serving/admission.h"
#include "src/serving/deferred.h"
#include "src/serving/metrics.h"
#include "src/serving/policy.h"
#include "src/workload/workload.h"

namespace fmoe {

struct EngineConfig {
  int prefetch_distance = 3;          // d, profiled to 3 in the paper (§6.1).
  uint64_t expert_cache_bytes = 0;    // Expert-cache budget; 0 = all experts fit.
  std::string cache_policy = "LFU";   // Eviction algorithm name (see eviction_policy.h).
  bool preload_all = false;           // No-offload reference: all experts resident from t=0.
  double frequency_decay = 0.6;       // Per-iteration aging of cache hit frequencies.
  int gpu_count = 6;                  // Paper testbed: six RTX 3090s.
  // Expert-to-device placement; the paper uses round-robin over a hash map (§5).
  PlacementStrategy placement = PlacementStrategy::kRoundRobin;
  GpuConfig gpu;
  HardwareProfile hardware;
  GateProfile gate;
  EmbedderProfile embedder;
  uint64_t seed = 1;
  // Pub-sub matcher-worker model (§4.3): published async jobs complete `scale * cost` after
  // the worker picks them up. 0 reproduces the historical instantaneous semantics exactly
  // (jobs apply inline at publish time); 1 models a matcher running at CostModel speed.
  double matcher_latency_scale = 0.0;
  // Bound on pending deferred jobs; past it the oldest pending job is dropped.
  int matcher_queue_depth = 32;
  // Multi-tier offload hierarchy (GPU ↔ host pool ↔ NVMe). Without nvme_backing (the
  // default) the store serves every fill from the infinite host pool (DESIGN.md §5h).
  TierConfig tier;
  // Optional virtual-time trace recorder (not owned; must outlive the engine). A pure
  // observer: attaching one changes no timing, metrics, or policy decisions (DESIGN.md §5f).
  TraceRecorder* trace = nullptr;
  // Prepended to every registered track name ("replica1/engine", ...). The cluster harness
  // sets it per replica so one recorder's track table names which engine owns each timeline;
  // empty (default) keeps single-engine track names byte-identical to the §5f goldens.
  std::string trace_track_prefix;
};

class ServingEngine : public EngineHandle {
 public:
  ServingEngine(const ModelConfig& model, const EngineConfig& config, OffloadPolicy* policy);

  // Serves one request to completion (batch of one). Advances the clock to the request's
  // arrival time first if the engine is idle before it.
  RequestMetrics ServeRequest(const Request& request);

  // Serves up to EngineConfig-independent batch: all requests run in lockstep iterations
  // (members that finish drop out). Used by the batch-size sensitivity experiment.
  std::vector<RequestMetrics> ServeBatch(std::span<const Request> requests);

  // Runs requests purely to build policy history / warm the cache, then discards the metrics.
  void WarmupWithHistory(std::span<const Request> requests);

  // Continuous-batching interface: requests may join the running batch at iteration
  // boundaries (what modern serving engines call continuous batching). AdmitRequest copies
  // the request and calls the policy's admission hook; StepIteration runs one lockstep
  // iteration over everyone currently active (members sit at *different* token positions);
  // DrainCompleted returns and clears the metrics of finished requests.
  // ServeBatch/ServeRequest are implemented on top of this machinery.
  void AdmitRequest(const Request& request);
  bool StepIteration();  // false when no requests are active.
  std::vector<RequestMetrics> DrainCompleted();
  size_t ActiveRequests() const { return active_members_.size(); }
  // Lets schedulers move idle time forward to the next arrival. Deferred jobs whose modeled
  // completion falls inside the idle gap apply once time catches up to them.
  void AdvanceClockTo(double t) {
    clock_.AdvanceTo(t);
    DrainDeferred();
  }

  RunMetrics& metrics() { return metrics_; }
  const RunMetrics& metrics() const { return metrics_; }
  // Also resets the stall attribution and clears the attached trace and live signal window,
  // so the recorded events, the attribution, and controller inputs cover exactly the window
  // the metrics describe (warmup runs are discarded from all of them).
  void ResetMetrics() {
    metrics_ = RunMetrics();
    stall_machine_.ResetAttribution();
    if (trace_ != nullptr) {
      trace_->ClearEvents();
    }
    if (signals_ != nullptr) {
      signals_->Clear();
    }
    if (oracle_ != nullptr) {
      oracle_->Clear(clock_.now());
    }
  }

  // --- Control plane (DESIGN.md §5j). Both default to detached: every hook below is a
  // single null-pointer check and the engine replays the legacy path byte-identically. ---

  // Attaches a live control-signal tracker: classified demand stalls, admission queueing
  // delays, and iteration durations are recorded into it in virtual time.
  void SetControlSignals(ControlSignalTracker* signals) { signals_ = signals; }
  // Attaches an admission controller: the engine feeds its signal tracker and pulls the
  // effective prefetch distance from it at every iteration boundary. The batch-limit and
  // shedding halves of the interface are consumed by the scheduler / cluster harness.
  void SetAdmissionController(AdmissionController* controller) {
    admission_ = controller;
    SetControlSignals(controller != nullptr ? controller->signals() : nullptr);
    if (controller == nullptr) {
      prefetch_distance_override_ = 0;
    }
  }
  // Demand stall split by cause and serving tier since the last ResetMetrics. Always on:
  // every miss is classified once by the engine's StallStateMachine, with or without a trace
  // or tracker attached. The total is bitwise equal to metrics().breakdown().demand_stall.
  const StallAttribution& signal_stall() const { return stall_machine_.stall(); }

  // Attaches a gate-decision recorder for the clairvoyant oracle (DESIGN.md §5k). Pure
  // observer with the same contract as tracing: every hook is a single null-pointer check
  // and recording changes no timing, metrics, or policy decisions. ResetMetrics clears the
  // tape so it covers exactly the measured window.
  void SetOracleRecorder(GateDecisionRecorder* oracle) { oracle_ = oracle; }

  const ExpertCache& cache() const { return cache_; }
  const TieredExpertStore& store() const { return store_; }
  const GpuCluster& cluster() const { return cluster_; }
  const GateSimulator& gate() const { return gate_; }
  const SemanticEmbedder& embedder() const { return embedder_; }
  const CostModel& cost_model() const { return cost_; }
  const EngineConfig& config() const { return config_; }

  // EngineHandle interface (policy-facing services).
  const ModelConfig& model() const override { return model_; }
  double now() const override { return clock_.now(); }
  // Closed-loop controllers may raise the effective distance at iteration boundaries
  // (override 0 = none = the configured value, the legacy behaviour).
  int prefetch_distance() const override {
    return prefetch_distance_override_ > 0 ? prefetch_distance_override_
                                           : config_.prefetch_distance;
  }
  void PrefetchAsync(ExpertId id, double probability, double priority) override;
  void PrefetchAsyncSized(ExpertId id, double probability, double priority,
                          double size_fraction) override;
  void StageToHostAsync(ExpertId id, double probability) override;
  void BlockingLoad(ExpertId id, double probability) override;
  bool IsCached(ExpertId id) const override;
  void SetCachedProbability(ExpertId id, double probability) override;
  std::vector<double> SpeculativeGate(const RequestRouting& routing, int iteration,
                                      int target_layer, int distance) const override;
  TraceRecorder* trace() const override { return trace_; }
  void AddOverhead(OverheadCategory category, double seconds) override;
  void AddAsyncWork(OverheadCategory category, double seconds) override;
  uint64_t PublishDeferred(OverheadCategory category, PublishMode mode, double cost_seconds,
                           uint64_t topic, DeferredApply apply) override;

  // Deferred-pipeline introspection (tests and invariant checks).
  size_t PendingDeferredJobs() const { return matcher_.pending(); }
  const MatcherWorker& matcher() const { return matcher_; }
  // Every queued transfer is named by its flat expert key. Every pending GPU entry has one
  // live fill on the route it records — queued once on its own device link (kFromHost), once
  // on the NVMe link (kDirect), or chained behind the key's queued staging (kChained; none
  // when that staging started inside PlanGpuFill, DESIGN.md §5h) — and every transfer queued
  // on a device link names a pending entry routed there.
  bool TransferTagsConsistent() const;
  // The store's stage bookkeeping is consistent, and every transfer queued on the NVMe link
  // names either a queued staging or a pending GPU entry on the direct path (fuzz tests).
  bool TierBookkeepingConsistent() const;

 private:
  struct BatchMember {
    Request request;  // Owned copy; contexts point at it.
    IterationContext context;
    RequestMetrics metrics;
    int next_iteration = 0;    // 0 = prefill not yet run.
    int total_iterations = 0;  // 1 prefill + decode_tokens decode iterations.
  };

  // One lockstep iteration over the active members, each at its own token position.
  // Returns iteration duration.
  double RunIteration(std::vector<BatchMember*>& active);

  // Serving an activated expert is split in two so one layer's demand transfers overlap
  // across device links: IssueExpert classifies hit/miss and starts any needed transfer
  // (pinning residents); CompleteExpert waits out the transfer and advances compute time.
  struct ExpertJob {
    ExpertId id;
    int tokens_routed = 0;
    double ready_at = 0.0;
    bool hit = false;
    bool resident = false;
    // Stall cause classified at issue time (meaningless for hits).
    StallClass stall_class = StallClass::kNeverPrefetched;
    // Tier that served a miss's bytes (always host without NVMe backing).
    StallTier tier_source = StallTier::kHost;
  };
  ExpertJob IssueExpert(ExpertId id, int tokens_routed);
  void CompleteExpert(const ExpertJob& job);

  // Demand-path helpers shared by IssueExpert and BlockingLoad. The store says where the
  // bytes come from and from when (host at `now` without NVMe backing; host staging or the
  // NVMe link with it); these run the GPU hop and report the serving tier.
  double DemandFillMiss(uint64_t key, PcieLink& link, StallTier* source);
  double PromoteQueuedToDemand(EntryRef& entry, uint64_t key, PcieLink& link,
                               StallTier* source);
  // Caches an expert whose bytes land at `ready` (skipped when it cannot fit), evicting
  // and freeing device memory for whatever it displaces.
  void InsertDemandFill(uint64_t key, double ready, double probability);

  // A queued GPU fill of `key` started on its device link or the NVMe link: its completion
  // instant is now known.
  void OnTransferScheduled(uint64_t key, double completion_time);

  uint64_t KeyOf(ExpertId id) const { return model_.FlatIndex(id); }
  PcieLink& LinkFor(uint64_t key) { return cluster_.DeviceFor(key).link(); }

  // Marks victims evicted for stall classification, removes their GPU allocations and
  // cancels their queued transfers. Every evicting cache call feeds its victims through here.
  void CleanupEvicted(const std::vector<CacheEntry>& evicted);

  // Applies every deferred job whose modeled completion time has been reached (layer
  // boundaries and idle advances are the subscription points of the pub-sub pipeline).
  void DrainDeferred();

  // Releases prefetch pins whose target layer has completed (layer == -1: release all).
  void ReleasePrefetchPins(int completed_layer);

  void PreloadAllExperts();

  // Lazily registers (and returns) the trace track for a batch slot's request lifecycle.
  int TraceSlotTrack(int slot);

  ModelConfig model_;
  EngineConfig config_;
  OffloadPolicy* policy_;  // Not owned.
  GateSimulator gate_;
  SemanticEmbedder embedder_;
  CostModel cost_;
  GpuCluster cluster_;
  std::unique_ptr<EvictionPolicy> eviction_policy_;
  TieredExpertStore store_;
  ExpertCache& cache_;  // GPU tier of store_; the legacy name every code path uses.
  SimClock clock_;
  RunMetrics metrics_;
  MatcherWorker matcher_;

  // Tracing (null trace_ = disabled; every hook is a single pointer check).
  TraceRecorder* trace_ = nullptr;  // Not owned.
  int trace_engine_track_ = 0;
  std::vector<int> trace_slot_tracks_;  // batch_slot -> track id, registered lazily.

  // The engine's one demand-miss classifier and stall split, fed unconditionally; trace_ and
  // signals_ receive the classes it computes.
  StallStateMachine stall_machine_;

  // Live control-plane feed (null signals_ = detached; same single-pointer-check contract as
  // tracing).
  ControlSignalTracker* signals_ = nullptr;  // Not owned.
  AdmissionController* admission_ = nullptr;  // Not owned.
  int prefetch_distance_override_ = 0;        // 0 = use config_.prefetch_distance.

  // Clairvoyant-oracle tape (null = disabled; same single-pointer-check contract).
  GateDecisionRecorder* oracle_ = nullptr;  // Not owned.

  // Continuous-batching state.
  std::vector<std::unique_ptr<BatchMember>> active_members_;
  std::vector<RequestMetrics> completed_;
  std::set<int> free_slots_;
  int next_slot_ = 0;

  // Prefetched-but-not-yet-used experts are pinned (the runtime holds a reference to the
  // inbound buffer) and released when their target layer completes or the iteration ends.
  // Bucketed by target layer so releases touch only the completed layers' keys; a key appears
  // at most once (resident keys never re-prefetch while pinned).
  std::vector<std::vector<uint64_t>> prefetch_pinned_by_layer_;
  size_t prefetch_pinned_count_ = 0;

  // Iteration scratch buffers, reused across layers and iterations so the steady-state decode
  // loop performs no heap allocation. layer_probs_[member][layer] doubles as the per-member
  // gate-output history handed to OnIterationEnd.
  std::vector<std::vector<std::vector<double>>> layer_probs_;
  std::vector<int> tokens_by_expert_;  // Dense per-layer token counts, indexed by expert.
  std::vector<int> activated_;
  std::vector<size_t> top_scratch_;
  std::vector<ExpertJob> jobs_;
  std::vector<CacheEntry> evicted_scratch_;
};

}  // namespace fmoe

#endif  // FMOE_SRC_SERVING_ENGINE_H_
