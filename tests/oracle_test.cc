// Property suite for the clairvoyant oracle (DESIGN.md §5k).
//
// The load-bearing claim is optimality of the eviction stage: on seeded random access
// tapes, BeladyReplay must never fetch more than reference replays of the online policies
// it judges (LRU and FIFO, implemented here against the exact same capacity / pinning /
// bypass semantics). The rest pins the gap report's invariants — gaps in [0, 1], the
// headline percentage in [0, 100], counter conservation, determinism, cluster-merge
// arithmetic — and the end-to-end pure-observer contract: enabling the oracle on a real
// 7:3 split run changes nothing outside the report's oracle block (the byte-level version of
// that lives in golden_metrics_test.cc).
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/moe/model_config.h"
#include "src/oracle/gate_recorder.h"
#include "src/oracle/oracle.h"
#include "src/util/rng.h"

namespace fmoe {
namespace {

// Reference replay with a pluggable online eviction rule, mirroring BeladyReplay's model
// exactly: per-access effective capacity, same-group pinning (one layer instant's demands
// cannot evict each other), capacity-shrink eviction, and stream-through bypass when nothing
// is evictable. Only the victim choice differs — which is the variable under test.
enum class ReferencePolicy { kLru, kFifo };

std::vector<char> ReferenceReplay(const std::vector<OracleAccess>& accesses,
                                  uint64_t expert_bytes, ReferencePolicy policy) {
  struct Entry {
    uint64_t key = 0;
    size_t stamp = 0;  // LRU: last-use index. FIFO: insertion index.
    int last_group = 0;
  };
  std::vector<Entry> resident;
  std::vector<char> hit(accesses.size(), 0);
  size_t clock = 0;
  for (size_t i = 0; i < accesses.size(); ++i) {
    const OracleAccess& a = accesses[i];
    const size_t capacity = expert_bytes == 0
                                ? accesses.size() + 1
                                : static_cast<size_t>(a.effective_capacity_bytes / expert_bytes);
    const auto evict_one = [&](int protect_group) {
      size_t victim = resident.size();
      for (size_t j = 0; j < resident.size(); ++j) {
        if (resident[j].last_group == protect_group) {
          continue;  // Pinned: demanded at this same instant.
        }
        if (victim == resident.size() || resident[j].stamp < resident[victim].stamp) {
          victim = j;
        }
      }
      if (victim == resident.size()) {
        return false;
      }
      resident.erase(resident.begin() + static_cast<long>(victim));
      return true;
    };
    while (resident.size() > capacity && evict_one(a.group)) {
    }
    const auto found = std::find_if(resident.begin(), resident.end(),
                                    [&](const Entry& e) { return e.key == a.key; });
    if (found != resident.end()) {
      hit[i] = 1;
      found->last_group = a.group;
      if (policy == ReferencePolicy::kLru) {
        found->stamp = ++clock;
      }
      continue;
    }
    if (capacity == 0) {
      continue;  // Stream-through; nothing can be resident.
    }
    if (resident.size() >= capacity && !evict_one(a.group)) {
      continue;  // Everything pinned: bypass, serve from the transient buffer.
    }
    resident.push_back(Entry{a.key, ++clock, a.group});
  }
  return hit;
}

size_t Fetches(const std::vector<char>& hits) {
  size_t fetches = 0;
  for (const char h : hits) {
    fetches += h ? 0 : 1;
  }
  return fetches;
}

// Seeded random tape: a small key universe (so reuse is common), groups of 1-4 simultaneous
// demands, and occasional capacity changes modelling KV-pressure growth and release.
std::vector<OracleAccess> FuzzTape(uint64_t seed, size_t length, uint64_t expert_bytes) {
  Rng rng(seed);
  std::vector<OracleAccess> tape;
  const uint64_t universe = 4 + rng.NextBounded(12);
  uint64_t capacity_bytes = (1 + rng.NextBounded(universe)) * expert_bytes;
  double now = 0.0;
  int group = 0;
  while (tape.size() < length) {
    ++group;
    now += 1e-4 + rng.NextDouble() * 1e-3;
    if (rng.NextBounded(8) == 0) {
      capacity_bytes = (1 + rng.NextBounded(universe)) * expert_bytes;
    }
    const size_t burst = 1 + rng.NextBounded(4);
    for (size_t i = 0; i < burst && tape.size() < length; ++i) {
      OracleAccess access;
      access.time = now;
      access.key = rng.NextBounded(universe);
      access.layer = group % 8;
      access.expert = static_cast<int>(access.key);
      access.effective_capacity_bytes = capacity_bytes;
      access.device = static_cast<int>(access.key % 2);
      access.group = group;
      tape.push_back(access);
    }
  }
  return tape;
}

constexpr uint64_t kExpertBytes = 1024;

TEST(BeladyReplayTest, MatchesHandComputedSchedule) {
  // Capacity 2, one access per group, sequence A B C A B. Serving C with {A, B} resident:
  // C's next use (never) is farther than both residents', so the optimal move is to bypass —
  // stream C through the transient buffer — and keep {A, B} for their upcoming hits.
  std::vector<OracleAccess> tape;
  const uint64_t keys[] = {0, 1, 2, 0, 1};
  for (size_t i = 0; i < 5; ++i) {
    OracleAccess access;
    access.time = static_cast<double>(i);
    access.key = keys[i];
    access.effective_capacity_bytes = 2 * kExpertBytes;
    access.group = static_cast<int>(i);
    tape.push_back(access);
  }
  const std::vector<char> hit = BeladyReplay(tape, kExpertBytes);
  ASSERT_EQ(hit.size(), 5u);
  EXPECT_FALSE(hit[0]);  // A: compulsory.
  EXPECT_FALSE(hit[1]);  // B: compulsory.
  EXPECT_FALSE(hit[2]);  // C: bypassed (not inserted).
  EXPECT_TRUE(hit[3]);   // A: still resident.
  EXPECT_TRUE(hit[4]);   // B: still resident.
}

TEST(BeladyReplayTest, SameGroupAccessesCannotEvictEachOther) {
  // Capacity 1, A and B demanded in the same group: B must not evict A mid-instant (the
  // engine serves both from the same layer's issue), so B bypasses and A hits next group.
  std::vector<OracleAccess> tape;
  const struct {
    uint64_t key;
    int group;
  } pattern[] = {{0, 1}, {1, 1}, {0, 2}};
  double now = 0.0;
  for (const auto& p : pattern) {
    OracleAccess access;
    access.time = now;
    access.key = p.key;
    access.effective_capacity_bytes = kExpertBytes;
    access.group = p.group;
    tape.push_back(access);
    now += 1.0;
  }
  const std::vector<char> hit = BeladyReplay(tape, kExpertBytes);
  ASSERT_EQ(hit.size(), 3u);
  EXPECT_FALSE(hit[0]);
  EXPECT_FALSE(hit[1]);
  EXPECT_TRUE(hit[2]) << "A was evicted by a same-group demand";
}

TEST(BeladyReplayTest, NeverFetchesMoreThanOnlinePoliciesOnFuzzedTapes) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<OracleAccess> tape = FuzzTape(seed, 600, kExpertBytes);
    const size_t belady = Fetches(BeladyReplay(tape, kExpertBytes));
    const size_t lru = Fetches(ReferenceReplay(tape, kExpertBytes, ReferencePolicy::kLru));
    const size_t fifo = Fetches(ReferenceReplay(tape, kExpertBytes, ReferencePolicy::kFifo));
    EXPECT_LE(belady, lru) << "seed " << seed;
    EXPECT_LE(belady, fifo) << "seed " << seed;
  }
}

TEST(BeladyReplayTest, IsDeterministic) {
  const std::vector<OracleAccess> tape = FuzzTape(/*seed=*/7, 400, kExpertBytes);
  EXPECT_EQ(BeladyReplay(tape, kExpertBytes), BeladyReplay(tape, kExpertBytes));
}

TEST(BeladyReplayTest, UnboundedCapacityOnlyPaysCompulsoryFetches) {
  const std::vector<OracleAccess> tape = FuzzTape(/*seed=*/3, 300, kExpertBytes);
  std::vector<OracleAccess> roomy = tape;
  for (OracleAccess& access : roomy) {
    access.effective_capacity_bytes = 1ULL << 40;
  }
  std::vector<uint64_t> keys;
  for (const OracleAccess& access : roomy) {
    keys.push_back(access.key);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  EXPECT_EQ(Fetches(BeladyReplay(roomy, kExpertBytes)), keys.size());
}

GateDecisionRecorder RecordTape(const std::vector<OracleAccess>& tape, uint64_t policy_seed) {
  // Synthesize policy outcomes: the replayed policy hits whenever the (deterministic) coin
  // says so — the report must hold for any policy behaviour, good or terrible.
  Rng rng(policy_seed);
  GateDecisionRecorder recorder;
  int last_group = -1;
  for (const OracleAccess& access : tape) {
    if (access.group != last_group) {
      recorder.BeginAccessGroup();
      last_group = access.group;
    }
    recorder.OnAccess(access.time, access.key, access.layer, access.expert,
                      rng.NextBounded(3) != 0, access.effective_capacity_bytes, access.device);
  }
  return recorder;
}

TEST(OracleReportTest, InvariantsHoldOnFuzzedTapes) {
  OracleConfig config;
  config.expert_bytes = kExpertBytes;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const GateDecisionRecorder recorder =
        RecordTape(FuzzTape(seed, 500, kExpertBytes), /*policy_seed=*/seed * 977);
    const OracleReport report = ComputeOracleReport(recorder, config, /*policy_stall_s=*/0.25);
    EXPECT_EQ(report.accesses, recorder.accesses().size());
    EXPECT_EQ(report.policy_hits + report.policy_misses, report.accesses);
    EXPECT_EQ(report.oracle_hits + report.oracle_misses, report.accesses);
    EXPECT_LE(report.oracle_misses, report.oracle_fetches);
    EXPECT_LE(report.oracle_fetches, report.accesses);
    EXPECT_GE(report.miss_gap, 0.0);
    EXPECT_LE(report.miss_gap, 1.0);
    EXPECT_GE(report.stall_gap, 0.0);
    EXPECT_LE(report.stall_gap, 1.0);
    EXPECT_GE(report.pct_of_clairvoyant, 0.0);
    EXPECT_LE(report.pct_of_clairvoyant, 100.0);
    EXPECT_GE(report.oracle_stall_s, 0.0);
  }
}

TEST(OracleReportTest, FirstUsesArePreloadedDuringWarmup) {
  // A cache that fits everything, a measured window that opens late (long warmup), and
  // demands that land immediately after it opens. The engine would have every expert
  // resident from warmup; the clairvoyant likewise preloads compulsory fetches before the
  // window (release = t0), so none of them may be charged as late. A regression here means
  // first uses are being released at the window start again, which made the "lower bound"
  // exceed a zero-stall policy at large caches.
  GateDecisionRecorder recorder;
  recorder.Clear(/*now=*/50.0);
  for (uint64_t key = 0; key < 8; ++key) {
    recorder.BeginAccessGroup();
    recorder.OnAccess(/*time=*/50.0 + static_cast<double>(key) * 1e-9, key, /*layer=*/0,
                      /*expert=*/static_cast<int>(key), /*policy_hit=*/true,
                      /*effective_capacity_bytes=*/1ULL << 40, /*device=*/0);
  }
  OracleConfig config;
  config.expert_bytes = kExpertBytes;
  const OracleReport report = ComputeOracleReport(recorder, config, /*policy_stall_s=*/0.0);
  EXPECT_EQ(report.oracle_fetches, 8u);  // All compulsory...
  EXPECT_EQ(report.oracle_misses, 0u);   // ...but preloaded, so none are late.
  EXPECT_EQ(report.oracle_stall_s, 0.0);
  EXPECT_EQ(report.pct_of_clairvoyant, 100.0);
}

TEST(OracleReportTest, EmptyTapeYieldsNeutralReport) {
  GateDecisionRecorder recorder;
  OracleConfig config;
  config.expert_bytes = kExpertBytes;
  const OracleReport report = ComputeOracleReport(recorder, config, /*policy_stall_s=*/0.0);
  EXPECT_EQ(report.accesses, 0u);
  EXPECT_EQ(report.miss_gap, 0.0);
  EXPECT_EQ(report.stall_gap, 0.0);
  EXPECT_EQ(report.pct_of_clairvoyant, 100.0);
}

TEST(OracleReportTest, ClearDropsWarmupAccesses) {
  GateDecisionRecorder recorder;
  recorder.BeginAccessGroup();
  recorder.OnAccess(0.5, 1, 0, 1, false, 4 * kExpertBytes, 0);
  recorder.Clear(/*now=*/1.0);
  EXPECT_TRUE(recorder.empty());
  EXPECT_EQ(recorder.window_start(), 1.0);
}

TEST(OracleReportTest, AccumulateSumsCountersAndRecomputesGaps) {
  OracleConfig config;
  config.expert_bytes = kExpertBytes;
  const GateDecisionRecorder a = RecordTape(FuzzTape(11, 300, kExpertBytes), 1);
  const GateDecisionRecorder b = RecordTape(FuzzTape(12, 300, kExpertBytes), 2);
  const OracleReport ra = ComputeOracleReport(a, config, 0.10);
  const OracleReport rb = ComputeOracleReport(b, config, 0.05);
  OracleReport merged = ra;
  AccumulateOracleReport(&merged, rb);
  EXPECT_EQ(merged.accesses, ra.accesses + rb.accesses);
  EXPECT_EQ(merged.policy_hits, ra.policy_hits + rb.policy_hits);
  EXPECT_EQ(merged.policy_misses, ra.policy_misses + rb.policy_misses);
  EXPECT_EQ(merged.oracle_fetches, ra.oracle_fetches + rb.oracle_fetches);
  EXPECT_EQ(merged.oracle_hits, ra.oracle_hits + rb.oracle_hits);
  EXPECT_EQ(merged.oracle_misses, ra.oracle_misses + rb.oracle_misses);
  EXPECT_DOUBLE_EQ(merged.policy_stall_s, ra.policy_stall_s + rb.policy_stall_s);
  EXPECT_DOUBLE_EQ(merged.oracle_stall_s, ra.oracle_stall_s + rb.oracle_stall_s);
  EXPECT_GE(merged.pct_of_clairvoyant, 0.0);
  EXPECT_LE(merged.pct_of_clairvoyant, 100.0);
}

// End-to-end: enabling the oracle on a real run is a pure observation. Every non-oracle
// field of the result must be identical to the oracle-off run, and the report must describe
// the measured window (one access per expert serving).
TEST(OracleEndToEndTest, EnablingOracleIsAPureObservation) {
  ExperimentOptions options;
  options.model = TinyTestConfig();
  options.dataset = LmsysLikeProfile();
  options.history_requests = 16;
  options.test_requests = 6;
  options.max_decode_tokens = 8;
  options.store_capacity = 64;
  options.cache_fraction = 0.22;
  options.seed = 42;
  const ExperimentResult off = RunExperiment({.system = "fMoE", .options = options});
  options.oracle = true;
  const ExperimentResult on = RunExperiment({.system = "fMoE", .options = options});

  EXPECT_FALSE(off.oracle_enabled);
  ASSERT_TRUE(on.oracle_enabled);
  EXPECT_EQ(on.iterations, off.iterations);
  EXPECT_DOUBLE_EQ(on.mean_ttft, off.mean_ttft);
  EXPECT_DOUBLE_EQ(on.mean_tpot, off.mean_tpot);
  EXPECT_DOUBLE_EQ(on.mean_e2e, off.mean_e2e);
  EXPECT_DOUBLE_EQ(on.hit_rate, off.hit_rate);
  EXPECT_DOUBLE_EQ(on.breakdown.demand_stall, off.breakdown.demand_stall);

  const OracleReport& report = on.oracle;
  EXPECT_GT(report.accesses, 0u);
  EXPECT_EQ(report.policy_hits + report.policy_misses, report.accesses);
  EXPECT_EQ(report.oracle_hits + report.oracle_misses, report.accesses);
  EXPECT_DOUBLE_EQ(report.policy_stall_s, off.breakdown.demand_stall);
  // The clairvoyant bound must actually bound: no more misses and no more stall than the
  // policy it judges.
  EXPECT_LE(report.oracle_misses, report.policy_misses);
  EXPECT_LE(report.oracle_stall_s, report.policy_stall_s);
}

}  // namespace
}  // namespace fmoe
