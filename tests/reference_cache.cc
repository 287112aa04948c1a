#include "tests/reference_cache.h"

#include <algorithm>

#include "src/util/logging.h"

namespace fmoe {

ReferenceExpertCache::ReferenceExpertCache(uint64_t capacity_bytes,
                                           const EvictionPolicy* policy)
    : capacity_bytes_(capacity_bytes), policy_(policy) {
  FMOE_CHECK(policy != nullptr);
}

CacheEntry* ReferenceExpertCache::Find(uint64_t key) {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second.entry;
}

const CacheEntry* ReferenceExpertCache::Find(uint64_t key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second.entry;
}

bool ReferenceExpertCache::PickVictim(double now, uint64_t* victim) const {
  bool found = false;
  double best_score = 0.0;
  uint64_t best_seq = 0;
  for (const auto& [key, resident] : entries_) {
    if (resident.entry.pin_count > 0) {
      continue;
    }
    const double score = policy_->EvictionScore(resident.entry, now);
    if (!found || score > best_score || (score == best_score && resident.seq > best_seq)) {
      found = true;
      best_score = score;
      best_seq = resident.seq;
      *victim = key;
    }
  }
  return found;
}

ReferenceExpertCache::Resident ReferenceExpertCache::Evict(uint64_t key) {
  const auto it = entries_.find(key);
  const Resident out = it->second;
  used_bytes_ -= out.entry.bytes;
  entries_.erase(it);
  return out;
}

bool ReferenceExpertCache::Insert(const CacheEntry& entry, double now,
                                  std::vector<CacheEntry>* evicted) {
  if (entries_.contains(entry.key)) {
    return false;
  }
  if (entry.bytes > effective_capacity_bytes()) {
    ++stats_.rejected_insertions;
    return false;
  }
  // Tentatively evict until the entry fits; roll back if we run out of victims.
  std::vector<Resident> victims;
  while (used_bytes_ + entry.bytes > effective_capacity_bytes()) {
    uint64_t victim_key = 0;
    if (!PickVictim(now, &victim_key)) {
      // Roll back: victims go home with their original insertion sequence.
      for (const Resident& v : victims) {
        entries_.emplace(v.entry.key, v);
        used_bytes_ += v.entry.bytes;
      }
      ++stats_.rejected_insertions;
      return false;
    }
    victims.push_back(Evict(victim_key));
  }
  entries_.emplace(entry.key, Resident{entry, next_seq_++});
  used_bytes_ += entry.bytes;
  ++stats_.insertions;
  stats_.evictions += victims.size();
  if (evicted != nullptr) {
    evicted->clear();
    for (const Resident& v : victims) {
      evicted->push_back(v.entry);
    }
  }
  return true;
}

bool ReferenceExpertCache::SetReservation(uint64_t bytes, double now,
                                          std::vector<CacheEntry>* evicted) {
  reserved_bytes_ = bytes;
  std::vector<CacheEntry> victims;
  while (used_bytes_ > effective_capacity_bytes()) {
    uint64_t victim_key = 0;
    if (!PickVictim(now, &victim_key)) {
      break;  // Only pinned entries left; best effort until pins release.
    }
    victims.push_back(Evict(victim_key).entry);
  }
  stats_.evictions += victims.size();
  if (evicted != nullptr) {
    *evicted = std::move(victims);
  }
  return used_bytes_ <= effective_capacity_bytes();
}

bool ReferenceExpertCache::Remove(uint64_t key, CacheEntry* removed) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return false;
  }
  FMOE_CHECK_MSG(it->second.entry.pin_count == 0, "removing pinned expert " << key);
  if (removed != nullptr) {
    *removed = it->second.entry;
  }
  used_bytes_ -= it->second.entry.bytes;
  entries_.erase(it);
  return true;
}

void ReferenceExpertCache::Touch(uint64_t key, double now) {
  CacheEntry* entry = Find(key);
  FMOE_CHECK_MSG(entry != nullptr, "touching absent expert " << key);
  entry->frequency += 1.0;
  entry->last_access = now;
}

void ReferenceExpertCache::DecayFrequencies(double factor) {
  FMOE_CHECK(factor > 0.0 && factor <= 1.0);
  for (auto& [key, resident] : entries_) {
    resident.entry.frequency *= factor;
  }
}

void ReferenceExpertCache::SetProbability(uint64_t key, double probability) {
  CacheEntry* entry = Find(key);
  if (entry != nullptr) {
    entry->probability = probability;
  }
}

void ReferenceExpertCache::Pin(uint64_t key) {
  CacheEntry* entry = Find(key);
  FMOE_CHECK_MSG(entry != nullptr, "pinning absent expert " << key);
  ++entry->pin_count;
}

void ReferenceExpertCache::Unpin(uint64_t key) {
  CacheEntry* entry = Find(key);
  FMOE_CHECK_MSG(entry != nullptr, "unpinning absent expert " << key);
  FMOE_CHECK(entry->pin_count > 0);
  --entry->pin_count;
}

std::vector<uint64_t> ReferenceExpertCache::EvictionOrder(double now) const {
  std::vector<const Resident*> unpinned;
  unpinned.reserve(entries_.size());
  for (const auto& [key, resident] : entries_) {
    if (resident.entry.pin_count == 0) {
      unpinned.push_back(&resident);
    }
  }
  std::sort(unpinned.begin(), unpinned.end(), [&](const Resident* a, const Resident* b) {
    const double sa = policy_->EvictionScore(a->entry, now);
    const double sb = policy_->EvictionScore(b->entry, now);
    return sa != sb ? sa > sb : a->seq > b->seq;
  });
  std::vector<uint64_t> keys;
  keys.reserve(unpinned.size());
  for (const Resident* resident : unpinned) {
    keys.push_back(resident->entry.key);
  }
  return keys;
}

std::vector<uint64_t> ReferenceExpertCache::Keys() const {
  std::vector<uint64_t> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, resident] : entries_) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace fmoe
