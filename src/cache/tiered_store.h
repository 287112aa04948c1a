// Three-tier expert storage: GPU cache ↔ capacity-bounded host-RAM pool ↔ NVMe.
//
// The paper treats offloaded experts as living in one flat host pool behind the PCIe link.
// This store generalizes that world to a hierarchy: the GPU tier stays the existing slot-based
// ExpertCache (bit-for-bit untouched), the host tier is a second ExpertCache with its own
// eviction policy holding staged/demoted expert copies, and NVMe is the infinite backing tier
// where every expert's master copy always lives. Each inter-tier hop runs on its own link:
// host↔GPU on the per-device PCIe link the engine already owns, NVMe↔host (or NVMe→GPU on the
// explicit direct path) on the store's NVMe link.
//
// Movement rules (DESIGN.md §5h):
//   * promote  NVMe→host: speculative staging on map-store candidate scoring (StageToHost) or
//     as the upstream hop of a chained GPU fill (PlanGpuFill → kChained).
//   * promote  host→GPU: the engine's normal prefetch/demand machinery; the store only tells
//     it where the bytes are and from when they are available (EnsureHostSide / PlanGpuFill).
//   * demote   GPU→host: eviction victims with real resident data re-home in the host pool
//     (DemoteGpuVictim). The device→host writeback direction is modeled free: the PCIe link
//     models the host→device direction and the reverse lane of the full-duplex link is idle.
//   * spill    host→NVMe: host-pool evictions under pressure simply drop the copy — NVMe
//     always holds the master, so a clean spill costs no transfer.
//
// The engine calls the store on every fill, with or without NVMe backing. Without it (the
// default TierConfig) the host pool is the infinite home of every expert and the store answers
// as that world's host hit: every fill is kFromHost at `now`, every demand is served host-side
// at `now`, and staging, demotion, ticking and decay do nothing. It checks `nvme_backing`
// before touching the host pool or the NVMe link, so the two-tier path costs one branch.
#ifndef FMOE_SRC_CACHE_TIERED_STORE_H_
#define FMOE_SRC_CACHE_TIERED_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/eviction_policy.h"
#include "src/cache/expert_cache.h"
#include "src/memsim/link.h"
#include "src/obs/control_signals.h"

namespace fmoe {

class TraceRecorder;

struct TierConfig {
  // Experts' off-GPU home is NVMe instead of an infinite host pool. False leaves the
  // host-pool, NVMe-link and direct-path knobs below inert (the store serves every fill from
  // host at `now`); only kv_bytes_per_token acts in both worlds.
  bool nvme_backing = false;
  // Host-RAM staging pool budget. 0 with nvme_backing gives a two-tier GPU↔NVMe hierarchy
  // (the bench baseline); > 0 inserts the host tier in between.
  uint64_t host_capacity_bytes = 0;
  // NVMe link model (PCIe 4.0 x4 consumer drive ballpark; ~9× slower than the GPU link).
  LinkConfig nvme_link{3.5e9, 80e-6};
  // Explicitly configured NVMe→GPU teleport path. Off by default: without it every byte
  // reaching the GPU must pass through host staging (the tier property tests pin this).
  bool allow_direct_nvme_gpu = false;
  // Eviction policy of the host pool (LRU / LFU / fMoE-PriorityLFU).
  std::string host_policy = "LRU";
  // KV-cache pressure: bytes of GPU memory reserved per in-flight token, shrinking the
  // effective GPU expert budget as sequence length grows (paper Table 1).
  double kv_bytes_per_token = 0.0;
};

struct TierStats {
  uint64_t host_hits = 0;            // Demand fills served from a host-side copy.
  uint64_t nvme_hits = 0;            // Demand fills that had to read NVMe.
  uint64_t gpu_fills_from_host = 0;  // Prefetch hops sourced from a ready host copy.
  uint64_t gpu_fills_chained = 0;    // Prefetch hops chained behind NVMe→host staging.
  uint64_t direct_loads = 0;         // Transfers on the explicit NVMe→GPU direct path.
  uint64_t stages_issued = 0;        // NVMe→host staging transfers enqueued.
  uint64_t stages_landed = 0;        // Stagings whose NVMe transfer started (completion known).
  uint64_t stage_promotions = 0;     // Queued stagings promoted to NVMe demand loads.
  uint64_t demotions_to_host = 0;    // GPU victims re-homed in the host pool.
  uint64_t demotions_to_nvme = 0;    // GPU victims dropped straight to NVMe (no host room).
  uint64_t host_spills = 0;          // Host victims spilled to NVMe under pressure.

  void Accumulate(const TierStats& other);
};

// Every transfer queued on the NVMe link is named by its flat expert key. A key has at most
// one: a staging is never issued for a key the GPU tier holds, and a GPU fill chains onto the
// key's staging whenever one is queued, so a direct NVMe→GPU fill and a staging of the same
// key never coexist.
class TieredExpertStore {
 public:
  // Fired with (key, completion) when a queued NVMe transfer starts and its completion instant
  // becomes known. The stage hook reports stagings — the engine uses it to launch chained
  // host→GPU hops; the direct hook reports the engine's direct NVMe→GPU fills.
  using TransferScheduledHook = std::function<void(uint64_t key, double completion)>;

  TieredExpertStore(uint64_t gpu_capacity_bytes, const EvictionPolicy* gpu_policy,
                    const TierConfig& config);

  ExpertCache& gpu() { return gpu_; }
  const ExpertCache& gpu() const { return gpu_; }
  const ExpertCache& host() const { return host_; }
  PcieLink& nvme_link() { return nvme_link_; }
  const PcieLink& nvme_link() const { return nvme_link_; }
  const TierStats& stats() const { return stats_; }
  size_t pending_stage_count() const { return stages_.size(); }
  // True while an NVMe→host staging of `key` is queued on the NVMe link.
  bool StagePending(uint64_t key) const { return stages_.contains(key); }

  void set_stage_scheduled_hook(TransferScheduledHook hook) { stage_hook_ = std::move(hook); }
  void set_direct_scheduled_hook(TransferScheduledHook hook) { direct_hook_ = std::move(hook); }

  // Attaches a trace recorder (pure observer). With NVMe backing it registers two tracks,
  // `<prefix>host_pool` for tier movements and `<prefix>nvme/link` for the NVMe link's
  // transfers; without it nothing is registered. Call it after every other track of the
  // engine so tier tracks never shift their ids. The host ExpertCache itself is deliberately
  // NOT traced: its evictions are spills of copies whose GPU fate is already tracked, and they
  // are recorded here as "spill-to-nvme" tier instants instead.
  void RegisterTrace(TraceRecorder* trace, const std::string& track_prefix);

  // --- Residency queries. ---
  bool HostResident(uint64_t key) const { return host_.Contains(key); }
  // Earliest instant a committed host copy of `key` can feed a GPU hop: max(now, ready_at),
  // or `now` when no such copy exists (callers use this for hops already enqueued).
  double HostAvailableAt(uint64_t key, double now) const;

  // --- Demand path. ---
  // True when a demand miss of `key` must take the explicit NVMe→GPU direct path
  // (DirectDemand) rather than go through the host side (EnsureHostSide).
  bool DemandGoesDirect(uint64_t key) const {
    return config_.nvme_backing && config_.allow_direct_nvme_gpu && !host_.Contains(key);
  }

  // Makes `key`'s bytes available host-side and returns the earliest instant the host→GPU
  // hop may start. Ready host copy (always, without NVMe backing): returns `now` or the
  // copy's landing instant (host hit). Queued staging: promoted to an NVMe demand load.
  // Absent: NVMe demand load through a host bounce buffer (a host pool entry is kept when it
  // fits). `*source` reports which tier served the bytes.
  double EnsureHostSide(uint64_t key, uint64_t bytes, double now, StallTier* source);

  // Demand load over the explicit NVMe→GPU direct path; returns the completion time.
  double DirectDemand(uint64_t key, uint64_t bytes, double now);

  // --- Prefetch path. ---
  // Plans the source side of a GPU prefetch issued at `now`. kFromHost sets `*earliest`
  // (`now` without NVMe backing); kChained means the key's NVMe→host staging (newly issued
  // here if none was queued) feeds the hop, which the caller queues when the stage hook fires.
  // kDirect asks the caller to run the transfer on the NVMe link. Never fails: when the host
  // pool cannot hold the staging copy the transfer still runs through a transient host bounce
  // buffer.
  FillRoute PlanGpuFill(uint64_t key, uint64_t bytes, double now, double probability,
                        double* earliest);

  // Speculative NVMe→host staging (map-store candidate scoring, no GPU hop attached).
  // Returns false, issuing nothing, without NVMe backing or a host pool, for a key already
  // GPU- or host-side, or when the pool cannot take the copy.
  bool StageToHost(uint64_t key, uint64_t bytes, double now, double probability);

  // --- Demotion. ---
  // Re-homes a GPU eviction victim carrying real resident data (caller filters out pending
  // prefetch victims, which have no bytes to save). No-op without NVMe backing.
  void DemoteGpuVictim(const CacheEntry& victim, double now);

  // Ages host-pool hit frequencies (mirrors the engine's per-iteration GPU cache decay).
  void DecayHostFrequencies(double factor) {
    if (config_.nvme_backing) {
      host_.DecayFrequencies(factor);
    }
  }

  // Advances the NVMe link, landing staged transfers and firing chain hooks.
  void Tick(double now) {
    if (config_.nvme_backing) {
      nvme_link_.Tick(now);
    }
  }

  // Cross-checks stage bookkeeping against host-pool state and the NVMe link's queue
  // (fuzz/property tests): every staging is queued exactly once, a host-backed one owns a
  // pending pinned host entry, a transient one owns none, and every pending host entry is a
  // queued host-backed staging.
  bool BookkeepingConsistent() const;

 private:
  bool StageInternal(uint64_t key, uint64_t bytes, double now, double probability,
                     bool require_host_backed);
  void OnNvmeScheduled(uint64_t key, double completion);
  void NoteHostSpills(double now);
  void TraceMove(const char* name, uint64_t key, uint64_t bytes, double now);
  void TraceHostOccupancy(double now);

  TierConfig config_;
  std::unique_ptr<EvictionPolicy> host_policy_;
  ExpertCache gpu_;
  ExpertCache host_;
  PcieLink nvme_link_;
  TierStats stats_;
  TransferScheduledHook stage_hook_;
  TransferScheduledHook direct_hook_;
  TraceRecorder* trace_ = nullptr;  // Not owned; null = tracing disabled.
  int host_track_ = 0;
  int nvme_track_ = 0;

  // Queued stagings: key -> host_backed (false: transient bounce buffer, no host pool entry).
  std::unordered_map<uint64_t, bool> stages_;
  std::vector<CacheEntry> host_victims_scratch_;
};

}  // namespace fmoe

#endif  // FMOE_SRC_CACHE_TIERED_STORE_H_
