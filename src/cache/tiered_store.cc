#include "src/cache/tiered_store.h"

#include <algorithm>
#include <limits>

#include "src/obs/trace_recorder.h"
#include "src/util/logging.h"

namespace fmoe {

void TierStats::Accumulate(const TierStats& other) {
  host_hits += other.host_hits;
  nvme_hits += other.nvme_hits;
  gpu_fills_from_host += other.gpu_fills_from_host;
  gpu_fills_chained += other.gpu_fills_chained;
  direct_loads += other.direct_loads;
  stages_issued += other.stages_issued;
  stages_landed += other.stages_landed;
  stage_promotions += other.stage_promotions;
  demotions_to_host += other.demotions_to_host;
  demotions_to_nvme += other.demotions_to_nvme;
  host_spills += other.host_spills;
}

TieredExpertStore::TieredExpertStore(uint64_t gpu_capacity_bytes, const EvictionPolicy* gpu_policy,
                                     const TierConfig& config)
    : config_(config),
      host_policy_(MakeEvictionPolicy(config.host_policy)),
      gpu_(gpu_capacity_bytes, gpu_policy),
      host_(config.nvme_backing ? config.host_capacity_bytes : 0, host_policy_.get()),
      nvme_link_(config.nvme_link) {
  nvme_link_.set_completion_callback(
      [this](uint64_t key, double completion) { OnNvmeScheduled(key, completion); });
}

void TieredExpertStore::RegisterTrace(TraceRecorder* trace, const std::string& track_prefix) {
  if (!config_.nvme_backing) {
    return;
  }
  trace_ = trace;
  host_track_ = trace->RegisterTrack(track_prefix + "host_pool");
  nvme_link_.set_trace(trace, trace->RegisterTrack(track_prefix + "nvme/link"));
}

double TieredExpertStore::HostAvailableAt(uint64_t key, double now) const {
  if (!config_.nvme_backing) {
    return now;
  }
  const ConstEntryRef entry = host_.Find(key);
  if (!entry || entry.prefetch_pending()) {
    return now;
  }
  return std::max(now, entry.ready_at());
}

double TieredExpertStore::EnsureHostSide(uint64_t key, uint64_t bytes, double now,
                                         StallTier* source) {
  if (!config_.nvme_backing) {
    *source = StallTier::kHost;  // The infinite host pool always holds the bytes.
    return now;
  }
  nvme_link_.Tick(now);  // Land any staging that has started before routing.
  EntryRef entry = host_.Find(key);
  if (entry && !entry.prefetch_pending()) {
    // Host hit: the copy is committed (possibly still in flight from an earlier staging; the
    // GPU hop then starts when it lands).
    ++stats_.host_hits;
    *source = StallTier::kHost;
    const double available = std::max(now, entry.ready_at());
    host_.Touch(key, now);
    TraceMove("host-hit", key, bytes, now);
    return available;
  }
  // Any still-queued staging is promoted: cancel the queued NVMe prefetch and jump the NVMe
  // queue with a demand load (mirroring the GPU link's queued-promoted discipline).
  if (stages_.erase(key) > 0) {
    nvme_link_.CancelQueuedPrefetch(key);
    ++stats_.stage_promotions;
  }
  const double ready = nvme_link_.DemandLoad(now, bytes);
  ++stats_.nvme_hits;
  *source = StallTier::kNvme;
  if (entry) {
    // Host-backed staging entry adopts the demand completion.
    entry.set_ready_at(ready);
    entry.set_prefetch_pending(false);
    host_.Unpin(key);
    host_.Touch(key, now);
  } else {
    // Keep a host pool copy of the demand-staged bytes when it fits (the transfer streams
    // through a transient bounce buffer either way).
    CacheEntry fresh;
    fresh.key = key;
    fresh.bytes = bytes;
    fresh.ready_at = ready;
    fresh.last_access = now;
    fresh.prefetch_pending = false;
    host_victims_scratch_.clear();
    if (host_.Insert(fresh, now, &host_victims_scratch_)) {
      NoteHostSpills(now);
      TraceHostOccupancy(now);
    }
  }
  TraceMove("nvme-demand-stage", key, bytes, now);
  return ready;
}

double TieredExpertStore::DirectDemand(uint64_t key, uint64_t bytes, double now) {
  nvme_link_.Tick(now);
  ++stats_.nvme_hits;
  ++stats_.direct_loads;
  TraceMove("nvme-direct-demand", key, bytes, now);
  return nvme_link_.DemandLoad(now, bytes);
}

FillRoute TieredExpertStore::PlanGpuFill(uint64_t key, uint64_t bytes, double now,
                                         double probability, double* earliest) {
  if (!config_.nvme_backing) {
    *earliest = now;
    return FillRoute::kFromHost;
  }
  nvme_link_.Tick(now);
  EntryRef entry = host_.Find(key);
  if (entry && !entry.prefetch_pending()) {
    ++stats_.gpu_fills_from_host;
    *earliest = std::max(now, entry.ready_at());
    host_.Touch(key, now);
    return FillRoute::kFromHost;
  }
  if (stages_.contains(key)) {
    // Chain onto the staging already queued for this key.
    ++stats_.gpu_fills_chained;
    return FillRoute::kChained;
  }
  if (config_.allow_direct_nvme_gpu) {
    ++stats_.direct_loads;
    return FillRoute::kDirect;
  }
  StageInternal(key, bytes, now, probability, /*require_host_backed=*/false);
  ++stats_.gpu_fills_chained;
  return FillRoute::kChained;
}

bool TieredExpertStore::StageToHost(uint64_t key, uint64_t bytes, double now,
                                    double probability) {
  if (!config_.nvme_backing || config_.host_capacity_bytes == 0 || gpu_.Contains(key)) {
    return false;
  }
  nvme_link_.Tick(now);
  if (host_.Contains(key)) {
    host_.SetProbability(key, probability);
    return false;
  }
  if (stages_.contains(key)) {
    // A transient (bounce-buffer) staging for this key is already queued; a second one would
    // put two transfers named by one key on the NVMe link.
    return false;
  }
  return StageInternal(key, bytes, now, probability, /*require_host_backed=*/true);
}

bool TieredExpertStore::StageInternal(uint64_t key, uint64_t bytes, double now,
                                      double probability, bool require_host_backed) {
  CacheEntry entry;
  entry.key = key;
  entry.bytes = bytes;
  entry.ready_at = std::numeric_limits<double>::infinity();
  entry.last_access = now;
  entry.probability = probability;
  entry.prefetch_pending = true;
  host_victims_scratch_.clear();
  const bool host_backed = host_.Insert(entry, now, &host_victims_scratch_);
  if (host_backed) {
    NoteHostSpills(now);
    // Pinned until the staging transfer is scheduled: a queued staging entry can never be
    // evicted out from under its chain.
    host_.Pin(key);
    TraceHostOccupancy(now);
  } else if (require_host_backed) {
    return false;
  }
  stages_.emplace(key, host_backed);
  ++stats_.stages_issued;
  nvme_link_.EnqueuePrefetch(now, key, bytes);
  TraceMove(host_backed ? "stage-issue" : "stage-issue-transient", key, bytes, now);
  return true;
}

void TieredExpertStore::OnNvmeScheduled(uint64_t key, double completion) {
  const auto it = stages_.find(key);
  if (it == stages_.end()) {
    // No staging of this key is queued: the transfer is the engine's direct NVMe→GPU fill.
    if (direct_hook_) {
      direct_hook_(key, completion);
    }
    return;
  }
  const bool host_backed = it->second;
  stages_.erase(it);
  if (host_backed) {
    // The staging entry is pinned while queued, so it is still this staging's.
    EntryRef entry = host_.Find(key);
    FMOE_CHECK(entry && entry.prefetch_pending());
    entry.set_ready_at(completion);
    entry.set_prefetch_pending(false);
    host_.Unpin(key);
  }
  ++stats_.stages_landed;
  if (stage_hook_) {
    stage_hook_(key, completion);
  }
}

void TieredExpertStore::DemoteGpuVictim(const CacheEntry& victim, double now) {
  if (!config_.nvme_backing) {
    return;
  }
  if (config_.host_capacity_bytes == 0 || host_.Contains(victim.key)) {
    // No host tier (two-tier GPU↔NVMe) or a host copy already exists: the victim's data is
    // simply dropped — NVMe holds the master copy.
    if (!host_.Contains(victim.key)) {
      ++stats_.demotions_to_nvme;
      TraceMove("evicted-to-nvme", victim.key, victim.bytes, now);
    } else {
      ++stats_.demotions_to_host;
      TraceMove("evicted-to-host", victim.key, victim.bytes, now);
    }
    return;
  }
  CacheEntry entry = victim;
  entry.ready_at = now;  // Device→host writeback rides the free full-duplex reverse lane.
  entry.last_access = now;
  entry.prefetch_pending = false;
  entry.pin_count = 0;
  host_victims_scratch_.clear();
  if (host_.Insert(entry, now, &host_victims_scratch_)) {
    NoteHostSpills(now);
    ++stats_.demotions_to_host;
    TraceMove("evicted-to-host", victim.key, victim.bytes, now);
    TraceHostOccupancy(now);
  } else {
    ++stats_.demotions_to_nvme;
    TraceMove("evicted-to-nvme", victim.key, victim.bytes, now);
  }
}

void TieredExpertStore::NoteHostSpills(double now) {
  for (const CacheEntry& victim : host_victims_scratch_) {
    ++stats_.host_spills;
    TraceMove("spill-to-nvme", victim.key, victim.bytes, now);
  }
  host_victims_scratch_.clear();
}

void TieredExpertStore::TraceMove(const char* name, uint64_t key, uint64_t bytes, double now) {
  if (trace_) {
    trace_->Instant(host_track_, name, "tier", now,
                    {TraceArg::Uint("key", key), TraceArg::Uint("bytes", bytes)});
  }
}

void TieredExpertStore::TraceHostOccupancy(double now) {
  if (trace_) {
    trace_->Counter(host_track_, "host.used_bytes", now,
                    static_cast<double>(host_.used_bytes()));
    trace_->Counter(host_track_, "host.entries", now, static_cast<double>(host_.size()));
  }
}

bool TieredExpertStore::BookkeepingConsistent() const {
  std::unordered_map<uint64_t, int> queued;
  for (const uint64_t key : nvme_link_.QueuedTags()) {
    ++queued[key];
  }
  for (const auto& [key, host_backed] : stages_) {
    if (queued[key] != 1) {
      return false;
    }
    const ConstEntryRef entry = host_.Find(key);
    if (host_backed) {
      // A host-backed staging entry must still be pending and pinned.
      if (!entry || !entry.prefetch_pending() || entry.pin_count() == 0) {
        return false;
      }
    } else if (entry) {
      // Transient stagings have no host entry by definition.
      return false;
    }
  }
  for (const uint64_t key : host_.Keys()) {
    const auto it = stages_.find(key);
    if (host_.Find(key).prefetch_pending() && (it == stages_.end() || !it->second)) {
      return false;
    }
  }
  return host_.used_bytes() <= host_.capacity_bytes();
}

}  // namespace fmoe
