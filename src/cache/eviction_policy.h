// Eviction policies for the expert cache.
//
// The paper compares three (§6.5, Fig. 12b): LRU (Mixtral-Offloading), LFU (MoE-Infinity), and
// fMoE's probability-weighted LFU with eviction priority 1 / (p_{l,j} * freq_{l,j}). A policy
// assigns each cache entry an eviction score; the cache evicts the unpinned entry with the
// highest score first.
#ifndef FMOE_SRC_CACHE_EVICTION_POLICY_H_
#define FMOE_SRC_CACHE_EVICTION_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>

namespace fmoe {

// Floors that keep eviction scores finite for never-hit / zero-probability entries while
// preserving ordering (a never-hit entry is always a better victim than a hit one). Shared
// with the cache's indexed eviction structure, which needs the frequency floor to tell
// decay-sensitive entries from plateaued ones.
inline constexpr double kEvictionFrequencyFloor = 0.5;
inline constexpr double kEvictionProbabilityFloor = 1e-4;

// Where a pending GPU fill's transfer waits until it starts (DESIGN.md §5h). A queued
// transfer is named by its flat expert key on every link, so the route is all the engine
// needs to find and cancel it.
enum class FillRoute : uint8_t {
  kFromHost,  // Queued on the expert's device PCIe link (a host copy feeds it).
  kChained,   // Waiting for the key's NVMe→host staging; the hop is queued when it starts.
  kDirect,    // Queued on the store's NVMe link (explicit NVMe→GPU direct path).
};

// Bookkeeping the cache maintains per resident expert.
struct CacheEntry {
  uint64_t key = 0;        // Flat expert index.
  uint64_t bytes = 0;
  double ready_at = 0.0;   // Simulated time its host->device transfer completes.
  double last_access = 0.0;
  double frequency = 0.0;  // Aged cache-hit count (LFU signal); decays once per iteration.
  double probability = 0.0;  // Activation probability from the matched expert map (fMoE).
  int pin_count = 0;       // Pinned entries (in use / in flight) are not evictable.
  bool prefetch_pending = true;  // True until the transfer has started on the link.
  FillRoute fill_route = FillRoute::kFromHost;  // Meaningful only while prefetch_pending.
  bool reduced_precision = false;  // Weights resident at reduced precision (lossy extension).
};

// Comparable key the expert cache's lazy eviction heaps order entries by. `primary` sorts
// ascending — a *lower* primary means a *higher* eviction score, i.e. evicted sooner — so the
// best victim sits at the top of a min-heap. `frozen` marks keys that are invariant under
// uniform frequency decay (last-access times, sub-floor plateau scores); non-frozen keys are
// expressed in decay-normalized units (frequency divided by the cumulative decay product), so
// uniform aging never reorders them and the heap needs no per-decay maintenance.
struct EvictionIndexKey {
  double primary = 0.0;
  bool frozen = true;
};

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;
  virtual std::string name() const = 0;
  // Higher score = evicted sooner.
  virtual double EvictionScore(const CacheEntry& entry, double now) const = 0;
  // Index key for the cache's eviction heaps. `entry.frequency` must be fully materialized
  // (all pending decay folded in); `inv_decay` is the reciprocal of the cumulative decay
  // product since the cache's current normalization base.
  virtual EvictionIndexKey IndexKey(const CacheEntry& entry, double inv_decay) const = 0;
  // Whether EvictionScore depends on the entry's frequency / probability. The cache uses
  // these to decide which mutations must re-index an entry.
  virtual bool uses_frequency() const { return false; }
  virtual bool uses_probability() const { return false; }
};

// Classic least-recently-used: evict the oldest access.
class LruEvictionPolicy : public EvictionPolicy {
 public:
  std::string name() const override { return "LRU"; }
  double EvictionScore(const CacheEntry& entry, double now) const override;
  EvictionIndexKey IndexKey(const CacheEntry& entry, double inv_decay) const override;
};

// Least-frequently-used (MoE-Infinity): evict the lowest hit count.
class LfuEvictionPolicy : public EvictionPolicy {
 public:
  std::string name() const override { return "LFU"; }
  double EvictionScore(const CacheEntry& entry, double now) const override;
  EvictionIndexKey IndexKey(const CacheEntry& entry, double inv_decay) const override;
  bool uses_frequency() const override { return true; }
};

// fMoE: PRI^evict = 1 / (p * freq); low-probability and rarely-hit experts go first.
class PriorityLfuEvictionPolicy : public EvictionPolicy {
 public:
  std::string name() const override { return "fMoE-PriorityLFU"; }
  double EvictionScore(const CacheEntry& entry, double now) const override;
  EvictionIndexKey IndexKey(const CacheEntry& entry, double inv_decay) const override;
  bool uses_frequency() const override { return true; }
  bool uses_probability() const override { return true; }
};

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(const std::string& name);

}  // namespace fmoe

#endif  // FMOE_SRC_CACHE_EVICTION_POLICY_H_
