#include "src/memsim/link.h"

#include <algorithm>

#include "src/obs/trace_recorder.h"
#include "src/util/logging.h"

namespace fmoe {

PcieLink::PcieLink(const LinkConfig& config) : config_(config) {
  FMOE_CHECK(config.bandwidth_bytes_per_sec > 0.0);
  FMOE_CHECK(config.fixed_latency_sec >= 0.0);
}

double PcieLink::TransferDuration(uint64_t bytes) const {
  return config_.fixed_latency_sec +
         static_cast<double>(bytes) / config_.bandwidth_bytes_per_sec;
}

void PcieLink::EnqueuePrefetch(double now, uint64_t tag, uint64_t bytes) {
  EnqueuePrefetchAfter(now, tag, bytes, now);
}

void PcieLink::EnqueuePrefetchAfter(double now, uint64_t tag, uint64_t bytes,
                                    double earliest_start) {
  FMOE_CHECK_MSG(now + 1e-12 >= last_now_, "time moved backwards: " << now << " < " << last_now_);
  FMOE_CHECK(earliest_start + 1e-12 >= now);
  Tick(now);
  queue_.push_back(PendingTransfer{tag, bytes, now, earliest_start});
  // A prefetch enqueued while the link is idle starts immediately.
  StartEligiblePrefetches(now);
}

bool PcieLink::CancelQueuedPrefetch(uint64_t tag) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->tag == tag) {
      queue_.erase(it);
      if (trace_) {
        // Preemption evidence: a demand load (or eviction) pulled this queued prefetch.
        trace_->Instant(trace_track_, "prefetch-cancelled", "transfer", last_now_,
                        {TraceArg::Uint("tag", tag)});
      }
      return true;
    }
  }
  return false;
}

std::vector<uint64_t> PcieLink::QueuedTags() const {
  std::vector<uint64_t> tags;
  tags.reserve(queue_.size());
  for (const PendingTransfer& transfer : queue_) {
    tags.push_back(transfer.tag);
  }
  return tags;
}

void PcieLink::StartEligiblePrefetches(double now) {
  // A queued transfer starts at max(busy_until_, enqueue_time, earliest_start); it may only
  // start once the simulation reaches that instant, so demand loads arriving earlier can still
  // preempt it.
  while (!queue_.empty()) {
    const PendingTransfer& next = queue_.front();
    const double start =
        std::max(busy_until_, std::max(next.enqueue_time, next.earliest_start));
    if (start > now) {
      break;
    }
    const double completion = start + TransferDuration(next.bytes);
    busy_until_ = completion;
    total_prefetch_bytes_ += next.bytes;
    ++prefetch_count_;
    total_busy_sec_ += completion - start;
    if (trace_) {
      trace_->Span(trace_track_, "prefetch", "transfer", start, completion,
                   {TraceArg::Uint("tag", next.tag), TraceArg::Uint("bytes", next.bytes),
                    TraceArg::Num("queued_s", start - next.enqueue_time)});
    }
    if (on_complete_) {
      on_complete_(next.tag, completion);
    }
    queue_.pop_front();
  }
}

double PcieLink::DemandLoad(double now, uint64_t bytes) {
  return DemandLoadAfter(now, now, bytes);
}

double PcieLink::DemandLoadAfter(double now, double earliest_start, uint64_t bytes) {
  FMOE_CHECK_MSG(now + 1e-12 >= last_now_, "time moved backwards: " << now << " < " << last_now_);
  Tick(now);
  // The demand load waits only for the transfer already in flight (busy_until_ if in the
  // future) and for its upstream data availability, never for queued prefetches — those are
  // "paused" (stay queued behind it).
  const double start = std::max(std::max(now, earliest_start), busy_until_);
  const double completion = start + TransferDuration(bytes);
  busy_until_ = completion;
  total_demand_bytes_ += bytes;
  ++demand_load_count_;
  total_demand_wait_sec_ += completion - now;
  total_busy_sec_ += completion - start;
  last_now_ = now;
  if (trace_) {
    trace_->Span(trace_track_, "demand-load", "transfer", start, completion,
                 {TraceArg::Uint("bytes", bytes), TraceArg::Num("wait_s", start - now),
                  TraceArg::Uint("paused_prefetches", queue_.size())});
  }
  return completion;
}

void PcieLink::Tick(double now) {
  FMOE_CHECK_MSG(now + 1e-12 >= last_now_, "time moved backwards: " << now << " < " << last_now_);
  StartEligiblePrefetches(now);
  last_now_ = std::max(last_now_, now);
}

void PcieLink::ResetStats() {
  total_demand_bytes_ = 0;
  total_prefetch_bytes_ = 0;
  demand_load_count_ = 0;
  prefetch_count_ = 0;
  total_demand_wait_sec_ = 0.0;
  total_busy_sec_ = 0.0;
}

}  // namespace fmoe
