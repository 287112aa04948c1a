// Byte-budget expert cache (the GPU-resident working set of expert weights).
//
// The cache is purely mechanical: it tracks which experts are resident, how many bytes they
// occupy, and who to evict when a new expert must fit. All *policy* (what to prefetch, which
// probabilities to stamp on entries) lives in the offloading policies; all *timing* (when a
// transfer completes) lives in the memsim link — the cache stores the resulting ready_at.
//
// Storage is slot-based structure-of-arrays: every per-entry field lives in its own parallel
// array indexed by a dense slot handle, slots recycle through a free list, and an
// open-addressed hash table maps keys to slots. Victim selection is O(log n) amortized via
// two lazy-invalidation min-heaps of (primary, insertion label) index keys — see DESIGN.md
// for the full scheme (frozen/active split, epoch-based lazy decay, floor-crossing schedule).
//
// Tie rule: among entries with exactly equal eviction scores, the one inserted most recently
// is evicted first. Decoding sweeps the layers in order once per token, so among equally cold
// experts the newest one is needed again furthest in the future (the Belady choice). A
// rejected insert hands every tentative victim back its original insertion sequence, so it
// leaves the tie order untouched. The semantics, including the exact floating-point
// trajectory of decayed frequencies, are bit-identical to the naive linear-scan
// ReferenceExpertCache the property tests drive alongside this class.
#ifndef FMOE_SRC_CACHE_EXPERT_CACHE_H_
#define FMOE_SRC_CACHE_EXPERT_CACHE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/cache/eviction_policy.h"

namespace fmoe {

class TraceRecorder;

struct CacheStats {
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t rejected_insertions = 0;  // Did not fit even after evicting all unpinned entries.
};

// Instrumentation for the indexed eviction structure. Tests and bench_cache use these to
// verify the steady-state complexity claims (no per-decay O(n) sweeps, bounded heap growth)
// without timing anything.
struct CacheIndexStats {
  uint64_t heap_pushes = 0;
  uint64_t heap_pops = 0;       // Stale nodes discarded + candidates examined during picks.
  uint64_t heap_rebuilds = 0;   // Compactions and rebase rebuilds.
  uint64_t rebases = 0;         // Epoch-log folds (factor change, horizon, underflow guard).
  uint64_t decay_calls = 0;
  uint64_t crossing_fires = 0;  // Active entries frozen at their precomputed floor epoch.
  uint64_t victim_picks = 0;
};

class ExpertCache;

// Accessor handle for one resident entry (the SoA layout has no per-entry struct to point
// at). Invalidated by Insert/Remove, like the old CacheEntry pointer. Setters route
// score-relevant writes (probability) through the eviction index; transfer bookkeeping
// writes are index-neutral.
class EntryRef {
 public:
  EntryRef() = default;
  explicit operator bool() const { return cache_ != nullptr; }

  uint64_t key() const;
  uint64_t bytes() const;
  double ready_at() const;
  double last_access() const;
  double frequency() const;  // Fully materialized (all pending decay folded in).
  double probability() const;
  int pin_count() const;
  bool prefetch_pending() const;
  FillRoute fill_route() const;
  bool reduced_precision() const;

  void set_ready_at(double t);
  void set_prefetch_pending(bool pending);
  void set_fill_route(FillRoute route);
  void set_probability(double probability);

 private:
  friend class ExpertCache;
  EntryRef(ExpertCache* cache, uint32_t slot) : cache_(cache), slot_(slot) {}
  ExpertCache* cache_ = nullptr;
  uint32_t slot_ = 0;
};

// Read-only variant of EntryRef for const cache access.
class ConstEntryRef {
 public:
  ConstEntryRef() = default;
  explicit operator bool() const { return cache_ != nullptr; }

  uint64_t key() const;
  uint64_t bytes() const;
  double ready_at() const;
  double last_access() const;
  double frequency() const;
  double probability() const;
  int pin_count() const;
  bool prefetch_pending() const;
  FillRoute fill_route() const;
  bool reduced_precision() const;

 private:
  friend class ExpertCache;
  ConstEntryRef(const ExpertCache* cache, uint32_t slot) : cache_(cache), slot_(slot) {}
  const ExpertCache* cache_ = nullptr;
  uint32_t slot_ = 0;
};

class ExpertCache {
 public:
  ExpertCache(uint64_t capacity_bytes, const EvictionPolicy* policy);

  uint64_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t reserved_bytes() const { return reserved_bytes_; }
  // Bytes actually available to expert entries: capacity minus the external reservation
  // (KV-cache pressure). Saturates at zero. With no reservation this is capacity_bytes().
  uint64_t effective_capacity_bytes() const {
    return capacity_bytes_ > reserved_bytes_ ? capacity_bytes_ - reserved_bytes_ : 0;
  }
  size_t size() const { return occupied_; }
  const CacheStats& stats() const { return stats_; }
  const CacheIndexStats& index_stats() const { return index_stats_; }

  // Attaches a trace recorder (pure observer: never influences eviction decisions).
  // Insert/evict/remove decisions become instants on `track` plus occupancy counters.
  void set_trace(TraceRecorder* trace, int track) {
    trace_ = trace;
    trace_track_ = track;
  }

  bool Contains(uint64_t key) const { return LookupSlot(key) != kNilSlot; }
  // Invalid (false) ref when absent. Invalidated by Insert/Remove.
  EntryRef Find(uint64_t key);
  ConstEntryRef Find(uint64_t key) const;

  // Inserts an entry (evicting by policy as needed). On success the new entry is resident and
  // `evicted` (if non-null) receives the victims, which the caller must clean up (free GPU
  // memory, cancel queued transfers). Returns false — with no state change — when the entry
  // cannot fit even after evicting every unpinned entry, or when the key is already resident.
  bool Insert(const CacheEntry& entry, double now, std::vector<CacheEntry>* evicted);

  // Removes an entry outright (e.g. policy-driven offload). Returns the removed entry.
  bool Remove(uint64_t key, CacheEntry* removed);

  // Reserves `bytes` of the byte budget for an external consumer (the growing KV cache),
  // shrinking the capacity Insert may fill. Entries are evicted by policy until the resident
  // set fits the new effective capacity; victims land in `evicted` (if non-null) for the
  // caller to clean up. Returns false when pinned entries keep used_bytes above the effective
  // capacity (the reservation is then best-effort until pins release).
  bool SetReservation(uint64_t bytes, double now, std::vector<CacheEntry>* evicted);

  // Records a cache hit: bumps frequency and last-access time.
  void Touch(uint64_t key, double now);

  // Stamps the activation probability from a freshly matched expert map (fMoE eviction input).
  void SetProbability(uint64_t key, double probability);

  void Pin(uint64_t key);
  void Unpin(uint64_t key);

  // Ages all hit frequencies by `factor` in (0, 1]: freq *= factor. Without aging, LFU-style
  // policies entrench the first working set forever; the engine decays once per iteration.
  // O(1) amortized: the factor is appended to an epoch log and folded into each entry's
  // stored frequency lazily, in application order, so materialized values are bitwise
  // identical to an eager per-entry sweep.
  void DecayFrequencies(double factor);

  // Unpinned keys in victim order: descending eviction score, ties newest-inserted first.
  // The first key is the victim the next evicting Insert at `now` picks.
  std::vector<uint64_t> EvictionOrder(double now) const;

  // All resident keys, ascending.
  std::vector<uint64_t> Keys() const;

 private:
  friend class EntryRef;
  friend class ConstEntryRef;

  static constexpr uint32_t kNilSlot = 0xffffffffu;
  // Rebase (fold the epoch log into every entry) at this log length or when the cumulative
  // decay product nears the subnormal range where normalized heap keys would lose precision.
  static constexpr uint64_t kRebaseEpochLimit = 4096;
  static constexpr double kRebaseProductFloor = 1e-250;

  struct HeapNode {
    double primary = 0.0;
    uint64_t label = 0;  // ~seq: the newest entry has the smallest label.
    uint32_t slot = 0;
    uint32_t gen = 0;
  };
  struct NodeAfter {  // Min-heap comparator: lowest (primary, label) on top.
    bool operator()(const HeapNode& a, const HeapNode& b) const {
      if (a.primary != b.primary) {
        return a.primary > b.primary;
      }
      return a.label > b.label;
    }
  };
  struct Candidate {
    uint32_t slot = 0;
    uint64_t label = 0;
    double score = 0.0;
  };

  // --- Key -> slot open-addressed table (linear probing, backward-shift deletion). ---
  uint32_t LookupSlot(uint64_t key) const;
  void TableInsert(uint64_t key, uint32_t slot);
  void TableErase(uint64_t key);
  void TableGrow();

  // --- Lazy decay. ---
  // Folds the epoch log into the entry's stored frequency, factor by factor in application
  // order (bitwise identical to eager repeated multiplication).
  double MaterializedFrequency(uint32_t slot) const;
  void MaterializeSlot(uint32_t slot);
  CacheEntry MaterializedEntry(uint32_t slot) const;
  // Materializes everything, clears the epoch log, rebuilds heaps and crossing schedule
  // against the new normalization base and scheduling factor.
  void Rebase(double factor);

  // --- Eviction index. ---
  void PushHeapNode(uint32_t slot);       // Materializes, indexes, lazily compacts.
  void ScheduleCrossing(uint32_t slot);   // Precomputes the entry's floor-crossing epoch.
  void RebuildHeaps();
  double ExactScore(uint32_t slot, double now);
  bool BestCandidate(std::vector<HeapNode>& heap, double now, Candidate* out);
  bool PickVictim(double now, uint32_t* victim);

  // --- Residency. ---
  uint32_t AllocSlot();
  void InsertResident(const CacheEntry& entry, uint64_t seq);
  CacheEntry RemoveResident(uint32_t slot);

  uint64_t capacity_bytes_;
  uint64_t reserved_bytes_ = 0;
  const EvictionPolicy* policy_;  // Not owned.
  TraceRecorder* trace_ = nullptr;  // Not owned; null = tracing disabled.
  int trace_track_ = 0;
  bool uses_frequency_ = false;
  bool uses_probability_ = false;
  uint64_t used_bytes_ = 0;
  size_t occupied_ = 0;
  CacheStats stats_;
  CacheIndexStats index_stats_;

  // Parallel per-slot field arrays.
  std::vector<uint64_t> key_;
  std::vector<uint64_t> bytes_;
  std::vector<double> ready_at_;
  std::vector<double> last_access_;
  std::vector<double> freq_;
  std::vector<double> prob_;
  std::vector<uint64_t> epoch_;  // Absolute decay epoch freq_ is materialized at.
  std::vector<uint64_t> seq_;    // Insertion sequence: larger = inserted later.
  std::vector<int> pin_count_;
  std::vector<uint8_t> occupied_flag_;
  std::vector<uint8_t> prefetch_pending_;
  std::vector<FillRoute> fill_route_;
  std::vector<uint8_t> reduced_precision_;
  std::vector<uint32_t> gen_;       // Bumped by any score-relevant event; heap node validity.
  std::vector<uint32_t> freq_gen_;  // Bumped when the frequency trajectory changes; schedule validity.
  std::vector<uint32_t> free_slots_;

  // Open-addressed key -> slot table (power-of-two capacity).
  std::vector<uint64_t> table_keys_;
  std::vector<uint32_t> table_slots_;
  size_t table_mask_ = 0;
  size_t table_used_ = 0;

  // Lazy decay state.
  uint64_t decay_epoch_ = 0;
  uint64_t base_epoch_ = 0;
  std::vector<double> epoch_factors_;  // Factor applied at epoch base_epoch_ + i + 1.
  double decay_product_ = 1.0;         // Product of epoch_factors_.
  double inv_decay_ = 1.0;
  double sched_factor_ = -1.0;  // Factor the crossing schedule assumes; < 0 = none seen yet.
  // Epoch -> (slot, freq_gen) of active entries whose frequency plateaus at that epoch.
  std::map<uint64_t, std::vector<std::pair<uint32_t, uint32_t>>> crossings_;

  // Lazy-invalidation eviction heaps (min by (primary, label); stale gens dropped on pop).
  std::vector<HeapNode> frozen_heap_;
  std::vector<HeapNode> active_heap_;
  std::vector<HeapNode> pick_scratch_;

  uint64_t next_seq_ = 0;
  std::vector<CacheEntry> victims_scratch_;
  std::vector<uint64_t> victim_seqs_scratch_;  // Parallel to victims_scratch_, for rollback.
};

// --- EntryRef / ConstEntryRef inline accessors (need the ExpertCache definition). ---

inline uint64_t EntryRef::key() const { return cache_->key_[slot_]; }
inline uint64_t EntryRef::bytes() const { return cache_->bytes_[slot_]; }
inline double EntryRef::ready_at() const { return cache_->ready_at_[slot_]; }
inline double EntryRef::last_access() const { return cache_->last_access_[slot_]; }
inline double EntryRef::frequency() const { return cache_->MaterializedFrequency(slot_); }
inline double EntryRef::probability() const { return cache_->prob_[slot_]; }
inline int EntryRef::pin_count() const { return cache_->pin_count_[slot_]; }
inline bool EntryRef::prefetch_pending() const {
  return cache_->prefetch_pending_[slot_] != 0;
}
inline FillRoute EntryRef::fill_route() const { return cache_->fill_route_[slot_]; }
inline bool EntryRef::reduced_precision() const {
  return cache_->reduced_precision_[slot_] != 0;
}
inline void EntryRef::set_ready_at(double t) { cache_->ready_at_[slot_] = t; }
inline void EntryRef::set_prefetch_pending(bool pending) {
  cache_->prefetch_pending_[slot_] = pending ? 1 : 0;
}
inline void EntryRef::set_fill_route(FillRoute route) { cache_->fill_route_[slot_] = route; }
inline void EntryRef::set_probability(double probability) {
  cache_->SetProbability(cache_->key_[slot_], probability);
}

inline uint64_t ConstEntryRef::key() const { return cache_->key_[slot_]; }
inline uint64_t ConstEntryRef::bytes() const { return cache_->bytes_[slot_]; }
inline double ConstEntryRef::ready_at() const { return cache_->ready_at_[slot_]; }
inline double ConstEntryRef::last_access() const { return cache_->last_access_[slot_]; }
inline double ConstEntryRef::frequency() const {
  return cache_->MaterializedFrequency(slot_);
}
inline double ConstEntryRef::probability() const { return cache_->prob_[slot_]; }
inline int ConstEntryRef::pin_count() const { return cache_->pin_count_[slot_]; }
inline bool ConstEntryRef::prefetch_pending() const {
  return cache_->prefetch_pending_[slot_] != 0;
}
inline FillRoute ConstEntryRef::fill_route() const {
  return cache_->fill_route_[slot_];
}
inline bool ConstEntryRef::reduced_precision() const {
  return cache_->reduced_precision_[slot_] != 0;
}

}  // namespace fmoe

#endif  // FMOE_SRC_CACHE_EXPERT_CACHE_H_
