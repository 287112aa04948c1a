// Host-to-device transfer link model (PCIe).
//
// Semantics (matching the behaviour fMoE relies on, §4.5 of the paper):
//   * Prefetch transfers are queued FIFO and start only when simulation time reaches the point
//     where the link is free — i.e. they execute asynchronously, overlapping compute.
//   * A demand (on-demand) load issued at time t first lets any transfer already in flight at t
//     finish, then jumps ahead of every prefetch that has not yet started ("fMoE pauses all
//     expert prefetching tasks and immediately loads missed experts").
//   * Each transfer costs fixed_latency + bytes / bandwidth.
//
// The link does not own a clock; callers pass `now` explicitly, which must be non-decreasing
// across calls (enforced). Completion of a prefetch is reported through a callback carrying the
// opaque 64-bit tag supplied at enqueue time, fired during Tick()/DemandLoad() when simulated
// time passes the completion instant.
#ifndef FMOE_SRC_MEMSIM_LINK_H_
#define FMOE_SRC_MEMSIM_LINK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

namespace fmoe {

class TraceRecorder;

struct LinkConfig {
  double bandwidth_bytes_per_sec = 32.0e9;  // PCIe 4.0 x16 as in the paper's testbed.
  double fixed_latency_sec = 15e-6;         // Per-transfer setup cost (driver + DMA launch).
};

class PcieLink {
 public:
  // `on_complete(tag, completion_time)` fires when a prefetch transfer finishes.
  using CompletionCallback = std::function<void(uint64_t tag, double completion_time)>;

  explicit PcieLink(const LinkConfig& config);

  void set_completion_callback(CompletionCallback cb) { on_complete_ = std::move(cb); }

  // Attaches a trace recorder (pure observer: never changes link behaviour). Transfers are
  // recorded as spans on `track`, preemption cancellations as instants.
  void set_trace(TraceRecorder* trace, int track) {
    trace_ = trace;
    trace_track_ = track;
  }

  // Queues an asynchronous prefetch of `bytes` tagged `tag`. Returns immediately; the transfer
  // starts when the link becomes free at or after `now`.
  void EnqueuePrefetch(double now, uint64_t tag, uint64_t bytes);

  // Like EnqueuePrefetch, but the transfer additionally may not start before `earliest_start`
  // (>= now). Used for chained tier hops: a host→GPU copy cannot begin until the NVMe→host
  // staging transfer that feeds it has landed. With earliest_start == now this is arithmetic-
  // identical to EnqueuePrefetch.
  void EnqueuePrefetchAfter(double now, uint64_t tag, uint64_t bytes, double earliest_start);

  // Cancels a queued (not yet started) prefetch with the given tag. Returns true if found.
  bool CancelQueuedPrefetch(uint64_t tag);

  // Synchronous high-priority load. Advances internal schedule, bypassing queued prefetches,
  // and returns the completion time (>= now). In-flight transfers are not aborted.
  double DemandLoad(double now, uint64_t bytes);

  // Demand load whose data is only available from `earliest_start` (>= now) onwards — the
  // downstream hop of a chained tier fetch. Schedule state advances exactly as DemandLoad
  // (last_now_ stays at `now`); only the start instant is pushed to
  // max(now, earliest_start, busy_until). With earliest_start <= now this is arithmetic-
  // identical to DemandLoad.
  double DemandLoadAfter(double now, double earliest_start, uint64_t bytes);

  // Advances the internal schedule to `now`: starts queued prefetches whose start time has
  // arrived and fires completion callbacks for transfers finished by `now`.
  void Tick(double now);

  // Duration a transfer of `bytes` occupies the link.
  double TransferDuration(uint64_t bytes) const;

  // Time at which the link next becomes free, given everything started so far.
  double busy_until() const { return busy_until_; }

  size_t queued_prefetch_count() const { return queue_.size(); }
  // Tags of the queued (not yet started) prefetches in queue order, for invariant checks.
  std::vector<uint64_t> QueuedTags() const;

  // Cumulative accounting (for the latency-breakdown and overhead figures).
  uint64_t total_demand_bytes() const { return total_demand_bytes_; }
  uint64_t total_prefetch_bytes() const { return total_prefetch_bytes_; }
  uint64_t demand_load_count() const { return demand_load_count_; }
  uint64_t prefetch_count() const { return prefetch_count_; }
  double total_demand_wait_sec() const { return total_demand_wait_sec_; }

  // Sum of (completion - start) over every transfer that has started on this link — the
  // per-link busy-time ledger the tier property tests reconcile against
  // fixed_latency * transfer_count + bytes / bandwidth.
  double total_busy_sec() const { return total_busy_sec_; }

  void ResetStats();

 private:
  struct PendingTransfer {
    uint64_t tag = 0;
    uint64_t bytes = 0;
    double enqueue_time = 0.0;
    double earliest_start = 0.0;
  };

  // Starts as many queued prefetches as fit before `now` (their start instants have passed).
  void StartEligiblePrefetches(double now);

  LinkConfig config_;
  CompletionCallback on_complete_;
  TraceRecorder* trace_ = nullptr;  // Not owned; null = tracing disabled.
  int trace_track_ = 0;
  std::deque<PendingTransfer> queue_;
  double busy_until_ = 0.0;
  double last_now_ = 0.0;

  uint64_t total_demand_bytes_ = 0;
  uint64_t total_prefetch_bytes_ = 0;
  uint64_t demand_load_count_ = 0;
  uint64_t prefetch_count_ = 0;
  double total_demand_wait_sec_ = 0.0;
  double total_busy_sec_ = 0.0;
};

}  // namespace fmoe

#endif  // FMOE_SRC_MEMSIM_LINK_H_
