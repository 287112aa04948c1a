#include "src/obs/control_signals.h"

#include <algorithm>

#include "src/util/logging.h"

namespace fmoe {

const char* StallClassName(StallClass cls) {
  switch (cls) {
    case StallClass::kNeverPrefetched:
      return "never-prefetched";
    case StallClass::kPrefetchInFlight:
      return "prefetch-in-flight";
    case StallClass::kEvictedBeforeUse:
      return "evicted-before-use";
    default:
      return "unknown";
  }
}

const char* StallTierName(StallTier tier) {
  switch (tier) {
    case StallTier::kHost:
      return "served-from-host";
    case StallTier::kNvme:
      return "served-from-nvme";
    default:
      return "unknown";
  }
}

double StallAttribution::CategorySum() const {
  double sum = 0.0;
  for (double s : seconds) sum += s;
  return sum;
}

double StallAttribution::TierSum() const {
  double sum = 0.0;
  for (double s : tier_seconds) sum += s;
  return sum;
}

void StallAttribution::AddStall(StallClass cls, double stall) {
  const size_t i = static_cast<size_t>(cls);
  FMOE_CHECK(i < static_cast<size_t>(StallClass::kCount));
  seconds[i] += stall;
  misses[i] += 1;
  // Same addition sequence as the engine's demand_stall accumulation (one add per served
  // miss, in serve order) so the totals compare bitwise equal.
  total_seconds += stall;
  total_misses += 1;
}

void StallAttribution::AddTier(StallTier tier, double stall) {
  const size_t i = static_cast<size_t>(tier);
  FMOE_CHECK(i < static_cast<size_t>(StallTier::kCount));
  tier_seconds[i] += stall;
  tier_misses[i] += 1;
}

StallStateMachine::StallStateMachine(size_t num_keys)
    : key_state_(num_keys, KeyState::kNoIntent) {}

StallStateMachine::KeyState& StallStateMachine::StateOf(uint64_t key) {
  FMOE_CHECK(key < key_state_.size());
  return key_state_[key];
}

void StallStateMachine::OnPrefetchIssued(uint64_t key) {
  StateOf(key) = KeyState::kPrefetchedUnused;
}

void StallStateMachine::OnExpertServed(uint64_t key) { StateOf(key) = KeyState::kNoIntent; }

void StallStateMachine::OnEvicted(uint64_t key) {
  KeyState& state = StateOf(key);
  if (state == KeyState::kPrefetchedUnused) {
    state = KeyState::kEvictedBeforeUse;
  }
}

StallClass StallStateMachine::ClassifyMiss(uint64_t key, MissKind kind) {
  if (kind == MissKind::kQueuedPromoted || kind == MissKind::kInFlightLate) {
    // A prefetch for this key exists right now but has not landed: in-flight by definition,
    // regardless of any older evicted copy.
    return StallClass::kPrefetchInFlight;
  }
  // Full miss. If a previously prefetched copy was evicted before its first use, the miss is
  // the eviction's fault; the mark is consumed so later misses count as never-prefetched.
  KeyState& state = StateOf(key);
  if (state == KeyState::kEvictedBeforeUse) {
    state = KeyState::kNoIntent;
    return StallClass::kEvictedBeforeUse;
  }
  return StallClass::kNeverPrefetched;
}

ControlSignalTracker::ControlSignalTracker(double window_sec) : window_sec_(window_sec) {
  FMOE_CHECK(window_sec > 0.0);
}

void ControlSignalTracker::RecordStall(StallClass cls, double seconds, double now) {
  FMOE_CHECK(seconds >= 0.0);
  if (!has_events_) {
    has_events_ = true;
    first_event_at_ = now;
  }
  stalls_.push_back(StallEvent{now, seconds, cls});
}

void ControlSignalTracker::RecordAdmission(double queueing_delay, double now) {
  if (!has_events_) {
    has_events_ = true;
    first_event_at_ = now;
  }
  admissions_.push_back(ValueEvent{now, queueing_delay});
}

void ControlSignalTracker::RecordIteration(double duration, double now) {
  if (!has_events_) {
    has_events_ = true;
    first_event_at_ = now;
  }
  iterations_.push_back(ValueEvent{now, duration});
}

void ControlSignalTracker::Expire(double now) const {
  const double cutoff = now - window_sec_;
  while (!stalls_.empty() && stalls_.front().at < cutoff) stalls_.pop_front();
  while (!admissions_.empty() && admissions_.front().at < cutoff) admissions_.pop_front();
  while (!iterations_.empty() && iterations_.front().at < cutoff) iterations_.pop_front();
}

ControlSignals ControlSignalTracker::Sample(double now) const {
  Expire(now);
  ControlSignals s;
  s.sampled_at = now;
  // Early in the run the window is the elapsed time since the first event, so rates are not
  // diluted by a mostly-empty configured window.
  s.window_sec = has_events_ ? std::min(window_sec_, std::max(now - first_event_at_, 0.0))
                             : window_sec_;
  const double denom = std::max(s.window_sec, 1e-12);

  double total_stall = 0.0;
  std::array<double, static_cast<size_t>(StallClass::kCount)> by_class = {};
  for (const StallEvent& ev : stalls_) {
    by_class[static_cast<size_t>(ev.cls)] += ev.seconds;
    total_stall += ev.seconds;
  }
  for (size_t i = 0; i < by_class.size(); ++i) {
    s.stall_rate[i] = by_class[i] / denom;
  }
  s.total_stall_rate = total_stall / denom;
  if (total_stall > 0.0) {
    s.cache_thrash_ratio =
        by_class[static_cast<size_t>(StallClass::kEvictedBeforeUse)] / total_stall;
    s.inflight_share =
        by_class[static_cast<size_t>(StallClass::kPrefetchInFlight)] / total_stall;
  }
  s.stalls = stalls_.size();

  double delay_sum = 0.0;
  for (const ValueEvent& ev : admissions_) {
    delay_sum += ev.value;
    s.queueing_delay_max = std::max(s.queueing_delay_max, ev.value);
  }
  s.admissions = admissions_.size();
  s.queueing_delay_mean =
      admissions_.empty() ? 0.0 : delay_sum / static_cast<double>(admissions_.size());

  double iter_sum = 0.0;
  for (const ValueEvent& ev : iterations_) {
    iter_sum += ev.value;
  }
  s.iterations = iterations_.size();
  s.iteration_time_mean =
      iterations_.empty() ? 0.0 : iter_sum / static_cast<double>(iterations_.size());
  return s;
}

void ControlSignalTracker::Clear() {
  stalls_.clear();
  admissions_.clear();
  iterations_.clear();
  has_events_ = false;
  first_event_at_ = 0.0;
}

}  // namespace fmoe
