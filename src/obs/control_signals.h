// Stall classification and live control-plane signals (DESIGN.md §5f, §5j).
//
//   * StallStateMachine — the per-key prefetch-lifecycle classifier. Each ServingEngine owns
//     exactly one and feeds it unconditionally, so every demand miss is classified once, as
//     never-prefetched / prefetch-in-flight / evicted-before-use, whether or not anything is
//     attached. Its StallAttribution is the run's one stall split (a trace file carries a
//     copy); the engine also feeds each class to an attached ControlSignalTracker.
//   * ControlSignals — a windowed snapshot of the rates a closed-loop admission controller
//     needs: per-class stall rates, queueing delay, cache-thrash ratio, prefetch-in-flight
//     share (see src/serving/admission.h for the consumers).
//   * ControlSignalTracker — accumulates timestamped events in virtual time and samples them
//     over a sliding window. Unlike the tracer its output *is* read back by controllers —
//     attaching one only changes a run when a closed-loop admission policy acts on the
//     samples.
//
// Everything here runs in virtual time (the engine's SimClock), so closed-loop decisions are
// deterministic: the same trace + knobs produce the same controller actions on any machine.
#ifndef FMOE_SRC_OBS_CONTROL_SIGNALS_H_
#define FMOE_SRC_OBS_CONTROL_SIGNALS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace fmoe {

// Why a demand stall happened (the decomposition of LatencyBreakdown::demand_stall).
enum class StallClass : uint8_t {
  kNeverPrefetched = 0,   // No live prefetch intent for the key when the gate asked.
  kPrefetchInFlight = 1,  // A prefetch existed but had not landed (queued or transferring).
  kEvictedBeforeUse = 2,  // A prefetched copy was evicted before its first use.
  kCount,
};

const char* StallClassName(StallClass cls);

// Which storage tier ultimately served a missed expert's bytes (the tier decomposition that
// the multi-tier store adds on top of the StallClass taxonomy). Legacy two-tier runs charge
// every miss to kHost — the offloaded copy lives host-side there by definition.
enum class StallTier : uint8_t {
  kHost = 0,  // Served from a host-RAM copy (hit-in-host).
  kNvme = 1,  // Had to read NVMe (hit-in-nvme: staged through host or the direct path).
  kCount,
};

const char* StallTierName(StallTier tier);

// How the engine found the expert when the gate demanded it.
enum class MissKind : uint8_t {
  kNeverResident = 0,   // Full miss: no cache entry at all.
  kQueuedPromoted = 1,  // Prefetch enqueued but not started; promoted to a demand load.
  kInFlightLate = 2,    // Prefetch transfer started but lands after the gate asked.
};

// Accumulated stall attribution. `total_seconds` is accumulated with the same addition
// sequence as the engine's demand_stall metric (one add per served miss, in serve order), so
// the two compare bitwise equal; the per-class buckets partition the same stalls. The tier
// buckets are an independent second partition of the same misses by serving tier.
struct StallAttribution {
  std::array<double, static_cast<size_t>(StallClass::kCount)> seconds = {};
  std::array<uint64_t, static_cast<size_t>(StallClass::kCount)> misses = {};
  std::array<double, static_cast<size_t>(StallTier::kCount)> tier_seconds = {};
  std::array<uint64_t, static_cast<size_t>(StallTier::kCount)> tier_misses = {};
  double total_seconds = 0.0;
  uint64_t total_misses = 0;

  // Charges `stall` seconds of demand stall (>= 0, possibly 0 for fully hidden misses) to
  // `cls`.
  void AddStall(StallClass cls, double stall);
  // Charges the same stall to the tier that served the bytes (the orthogonal partition;
  // callers invoke this alongside AddStall for every served miss).
  void AddTier(StallTier tier, double stall);

  double CategorySum() const;  // seconds[0] + seconds[1] + seconds[2].
  double TierSum() const;      // tier_seconds[0] + tier_seconds[1].
};

// Per-key prefetch-lifecycle state machine: watches prefetch-issue, first-use, and eviction
// events and classifies every demand miss. Keys are flat expert indices in [0, num_keys); the
// state is one byte per key, so feeding the machine on every serve costs an array access.
class StallStateMachine {
 public:
  explicit StallStateMachine(size_t num_keys);

  // A policy-initiated load (prefetch or blocking speculative load) was issued for `key`.
  void OnPrefetchIssued(uint64_t key);
  // The expert was served (hit or miss); any pending prefetch intent is consumed.
  void OnExpertServed(uint64_t key);
  // The key's cache entry was evicted.
  void OnEvicted(uint64_t key);
  // Classifies a demand miss observed at issue time (consumes evicted-before-use marks).
  StallClass ClassifyMiss(uint64_t key, MissKind kind);
  // Charges one served miss to the attribution (see StallAttribution::AddStall / AddTier).
  void AttributeStall(StallClass cls, double seconds) { stall_.AddStall(cls, seconds); }
  void AttributeStallTier(StallTier tier, double seconds) { stall_.AddTier(tier, seconds); }

  const StallAttribution& stall() const { return stall_; }

  // Zeroes the attribution accumulators but keeps the per-key prefetch state — prefetches
  // issued during warmup are still live intent for the measured phase.
  void ResetAttribution() { stall_ = StallAttribution{}; }

 private:
  // Per-key prefetch lifecycle for classification.
  enum class KeyState : uint8_t {
    kNoIntent = 0,          // Never prefetched, or the intent was consumed.
    kPrefetchedUnused = 1,  // Loaded by policy intent, not yet served.
    kEvictedBeforeUse = 2,  // That copy was evicted before any serve.
  };

  KeyState& StateOf(uint64_t key);

  StallAttribution stall_;
  std::vector<KeyState> key_state_;  // Indexed by flat expert key.
};

// Windowed signal snapshot handed to admission controllers. All rates are per second of
// *virtual* time over the sampling window; ratios are shares of the window's stall seconds.
struct ControlSignals {
  double window_sec = 0.0;  // Effective window (<= configured; shorter early in the run).
  double sampled_at = 0.0;  // Virtual time of the sample.

  // Stall seconds accrued per second of window, split by cause.
  std::array<double, static_cast<size_t>(StallClass::kCount)> stall_rate = {};
  double total_stall_rate = 0.0;

  // Share of the window's stall seconds by cause; 0 when the window saw no stall.
  // cache_thrash_ratio is the evicted-before-use share (the thrash signature: prefetched
  // copies pushed out before first use); inflight_share is the prefetch-in-flight share
  // (lead-time bound: prefetches issued but landing late).
  double cache_thrash_ratio = 0.0;
  double inflight_share = 0.0;

  // Queueing delay of admissions inside the window (seconds from arrival to engine start).
  double queueing_delay_mean = 0.0;
  double queueing_delay_max = 0.0;

  // Mean lockstep-iteration duration inside the window (0 when none completed).
  double iteration_time_mean = 0.0;

  uint64_t stalls = 0;      // Served misses in the window (including zero-stall ones).
  uint64_t admissions = 0;  // Requests admitted in the window.
  uint64_t iterations = 0;  // Iterations completed in the window.
};

// Sliding-window accumulator over timestamped control events. Events older than
// `window_sec` before the sample instant are dropped; Sample() is pure w.r.t. the
// simulation (it never mutates anything the engine reads).
class ControlSignalTracker {
 public:
  explicit ControlSignalTracker(double window_sec = 0.5);

  double window_sec() const { return window_sec_; }

  // A served miss stalled the pipeline for `seconds` (>= 0) with cause `cls` at time `now`.
  void RecordStall(StallClass cls, double seconds, double now);
  // A request entered the running batch at `now` after waiting `queueing_delay` seconds.
  void RecordAdmission(double queueing_delay, double now);
  // A lockstep iteration of duration `duration` completed at `now`.
  void RecordIteration(double duration, double now);

  // Snapshot of the window ending at `now`.
  ControlSignals Sample(double now) const;

  // Drops all recorded events (metrics reset after warmup).
  void Clear();

 private:
  struct StallEvent {
    double at;
    double seconds;
    StallClass cls;
  };
  struct ValueEvent {
    double at;
    double value;
  };

  // Drops events older than now - window from the front of each deque.
  void Expire(double now) const;

  double window_sec_;
  // Mutable so Sample() can expire lazily; expiry only forgets data Sample() would ignore.
  mutable std::deque<StallEvent> stalls_;
  mutable std::deque<ValueEvent> admissions_;
  mutable std::deque<ValueEvent> iterations_;
  double first_event_at_ = 0.0;
  bool has_events_ = false;
};

}  // namespace fmoe

#endif  // FMOE_SRC_OBS_CONTROL_SIGNALS_H_
