#include "src/core/shard_router.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/rng.h"

namespace fmoe {
namespace {

// One-shot SplitMix64 finalizer over a composed key: cheap, well-mixed, and stateless, so
// plane components and ring points are pure functions of their coordinates.
uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t state = a ^ (b * 0x9e3779b97f4a7c15ULL) ^ (c * 0xbf58476d1ce4e5b9ULL);
  return SplitMix64(state);
}

}  // namespace

SemanticShardRouter::SemanticShardRouter(int targets, uint64_t seed)
    : targets_(targets), seed_(seed) {
  FMOE_CHECK(targets >= 1);
  ring_.reserve(static_cast<size_t>(targets) * kVirtualNodes);
  for (int t = 0; t < targets; ++t) {
    for (int v = 0; v < kVirtualNodes; ++v) {
      ring_.push_back({Mix(seed_ ^ 0x72696e67ULL /* "ring" */, static_cast<uint64_t>(t),
                           static_cast<uint64_t>(v)),
                       t});
    }
  }
  // Sort by position; tie-break toward the lower target id so the ring layout is a pure
  // function of (seed, targets) even if two points collide.
  std::sort(ring_.begin(), ring_.end(), [](const RingPoint& a, const RingPoint& b) {
    return a.position != b.position ? a.position < b.position : a.target < b.target;
  });
}

double SemanticShardRouter::PlaneComponent(int plane, size_t dim) const {
  // Map 64 mixed bits to (-1, 1) uniformly. Uniform components give the same LSH guarantees
  // as Gaussians for sign-hash purposes (only the direction distribution matters, and the
  // per-coordinate symmetry is what the sign test consumes).
  const uint64_t bits =
      Mix(seed_ ^ 0x706c616e65ULL /* "plane" */, static_cast<uint64_t>(plane),
          static_cast<uint64_t>(dim));
  return static_cast<double>(bits >> 11) * 0x1.0p-53 * 2.0 - 1.0;
}

uint64_t SemanticShardRouter::Signature(std::span<const double> embedding) const {
  uint64_t signature = 0;
  for (int p = 0; p < kPlanes; ++p) {
    double dot = 0.0;
    for (size_t d = 0; d < embedding.size(); ++d) {
      dot += embedding[d] * PlaneComponent(p, d);
    }
    signature |= static_cast<uint64_t>(dot >= 0.0) << p;
  }
  return signature;
}

int SemanticShardRouter::RouteSignature(uint64_t signature) const {
  if (targets_ == 1) {
    return 0;
  }
  // First ring point at or after hash(signature), wrapping to the smallest point.
  uint64_t state = signature ^ seed_;
  const uint64_t position = SplitMix64(state);
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), position,
      [](const RingPoint& point, uint64_t pos) { return point.position < pos; });
  return it == ring_.end() ? ring_.front().target : it->target;
}

int SemanticShardRouter::Route(std::span<const double> embedding) const {
  if (targets_ == 1) {
    return 0;  // One target: the signature would only be thrown away.
  }
  return RouteSignature(Signature(embedding));
}

}  // namespace fmoe
