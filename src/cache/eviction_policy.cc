#include "src/cache/eviction_policy.h"

#include <algorithm>

#include "src/util/logging.h"

namespace fmoe {
namespace {

constexpr double kMinFrequency = kEvictionFrequencyFloor;
constexpr double kMinProbability = kEvictionProbabilityFloor;

}  // namespace

double LruEvictionPolicy::EvictionScore(const CacheEntry& entry, double now) const {
  // Older last access => larger (now - last_access) => evicted first.
  return now - entry.last_access;
}

EvictionIndexKey LruEvictionPolicy::IndexKey(const CacheEntry& entry,
                                             double /*inv_decay*/) const {
  // now - last_access is monotone decreasing in last_access for any now, so the access time
  // itself is a frozen primary.
  return EvictionIndexKey{entry.last_access, /*frozen=*/true};
}

double LfuEvictionPolicy::EvictionScore(const CacheEntry& entry, double /*now*/) const {
  const double freq = std::max(entry.frequency, kMinFrequency);
  return 1.0 / freq;
}

EvictionIndexKey LfuEvictionPolicy::IndexKey(const CacheEntry& entry, double inv_decay) const {
  if (entry.frequency <= kMinFrequency) {
    // Sub-floor plateau: every such entry scores exactly 1/kMinFrequency, so the primary is a
    // constant and the cache's tie rule alone picks the victim (newest insertion first).
    return EvictionIndexKey{kMinFrequency, /*frozen=*/true};
  }
  return EvictionIndexKey{entry.frequency * inv_decay, /*frozen=*/false};
}

double PriorityLfuEvictionPolicy::EvictionScore(const CacheEntry& entry, double /*now*/) const {
  const double freq = std::max(entry.frequency, kMinFrequency);
  const double prob = std::max(entry.probability, kMinProbability);
  return 1.0 / (prob * freq);
}

EvictionIndexKey PriorityLfuEvictionPolicy::IndexKey(const CacheEntry& entry,
                                                     double inv_decay) const {
  const double prob = std::max(entry.probability, kMinProbability);
  if (entry.frequency <= kMinFrequency) {
    // Plateaued frequency: the score is a pure function of probability and stays put under
    // decay. prob * 0.5 is an exact halving, so equal probabilities tie exactly.
    return EvictionIndexKey{prob * kMinFrequency, /*frozen=*/true};
  }
  return EvictionIndexKey{prob * (entry.frequency * inv_decay), /*frozen=*/false};
}

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(const std::string& name) {
  if (name == "LRU") {
    return std::make_unique<LruEvictionPolicy>();
  }
  if (name == "LFU") {
    return std::make_unique<LfuEvictionPolicy>();
  }
  if (name == "fMoE-PriorityLFU") {
    return std::make_unique<PriorityLfuEvictionPolicy>();
  }
  FMOE_CHECK_MSG(false, "unknown eviction policy: " << name);
}

}  // namespace fmoe
