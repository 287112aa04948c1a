// Property tests for the three-tier expert store (DESIGN.md §5h) under fuzzed schedules.
//
// A driver plays the engine's role against a TieredExpertStore: random interleavings of
// speculative staging, demand fills, GPU-fill planning, victim demotion, frequency decay, and
// link ticks. After every operation the invariants that define tier correctness must hold:
//
//   * Consistent tier bookkeeping — every staging is queued on the NVMe link exactly once
//     under its key, host-backed staging entries stay pending+pinned, transient stagings own
//     no host entry (TieredExpertStore::BookkeepingConsistent), and host occupancy never
//     exceeds capacity.
//   * No NVMe→GPU teleport — with allow_direct_nvme_gpu off, PlanGpuFill never routes
//     kDirect: every fill is served from a host copy (kFromHost) or chained behind an
//     NVMe→host staging (kChained). kFromHost additionally requires actual host residency.
//   * Queue/stage agreement — without the direct path, every queued NVMe transfer IS a
//     pending staging and vice versa (pending_stage_count == queued_prefetch_count).
//   * Transfer accounting — after a final flush, every issued staging either landed or was
//     promoted (stages_landed == stages_issued - stage_promotions), the link's demand /
//     prefetch counters match an independent ledger, and PcieLink::total_busy_sec() equals
//     started_transfers * TransferDuration(bytes) exactly (uniform transfer size makes the
//     repeated-addition trajectory bit-reproducible).
#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/tiered_store.h"
#include "src/util/rng.h"

namespace fmoe {
namespace {

constexpr uint64_t kExpertBytes = 10;
constexpr uint64_t kGpuCapacity = 120;
constexpr uint64_t kKeySpace = 48;

struct FuzzConfig {
  uint64_t host_capacity = 0;
  bool allow_direct = false;
  const char* host_policy = "LRU";
  uint64_t seed = 1;
  int ops = 3000;
};

// Independent transfer ledger the link's own accounting must reconcile against.
struct Ledger {
  uint64_t demand_loads = 0;    // EnsureHostSide(kNvme) + DirectDemand calls.
  uint64_t direct_fills = 0;    // Direct NVMe→GPU fills we enqueued for kDirect routes.
  uint64_t stage_hook_fires = 0;
  uint64_t direct_hook_fires = 0;
};

void RunSchedule(const FuzzConfig& fuzz) {
  TierConfig config;
  config.nvme_backing = true;
  config.host_capacity_bytes = fuzz.host_capacity;
  config.allow_direct_nvme_gpu = fuzz.allow_direct;
  config.host_policy = fuzz.host_policy;
  const std::unique_ptr<EvictionPolicy> gpu_policy = MakeEvictionPolicy("fMoE-PriorityLFU");
  TieredExpertStore store(kGpuCapacity, gpu_policy.get(), config);

  Ledger ledger;
  store.set_stage_scheduled_hook([&](uint64_t, double) { ++ledger.stage_hook_fires; });
  // A direct fill holds a pinned pending GPU entry until its transfer starts, as in the
  // engine; that is what stops StageToHost from queueing a staging under the same key.
  store.set_direct_scheduled_hook([&](uint64_t key, double) {
    ++ledger.direct_hook_fires;
    store.gpu().Unpin(key);
    ASSERT_TRUE(store.gpu().Remove(key, nullptr));
  });

  Rng rng(fuzz.seed);
  double now = 0.0;

  for (int op = 0; op < fuzz.ops; ++op) {
    now += rng.NextDouble() * 1e-4;
    const uint64_t key = rng.NextBounded(kKeySpace);
    switch (rng.NextBounded(6)) {
      case 0: {  // Speculative NVMe→host staging (map-store candidate scoring).
        store.StageToHost(key, kExpertBytes, now, rng.NextDouble());
        break;
      }
      case 1: {  // Demand fill: the host side must produce the bytes somehow.
        StallTier source = StallTier::kHost;
        const double ready = store.EnsureHostSide(key, kExpertBytes, now, &source);
        ASSERT_GE(ready, now) << "op " << op;
        if (source == StallTier::kNvme) {
          ++ledger.demand_loads;
        }
        break;
      }
      case 2: {  // Plan the source side of a GPU prefetch for a key the GPU tier lacks.
        CacheEntry pending;
        pending.key = key;
        pending.bytes = kExpertBytes;
        pending.pin_count = 1;
        if (!store.gpu().Insert(pending, now, nullptr)) {
          break;  // Already GPU-side, or every slot holds a queued direct fill.
        }
        double earliest = 0.0;
        const FillRoute route =
            store.PlanGpuFill(key, kExpertBytes, now, rng.NextDouble(), &earliest);
        switch (route) {
          case FillRoute::kFromHost:
            ASSERT_TRUE(store.HostResident(key)) << "op " << op;
            ASSERT_GE(earliest, now) << "op " << op;
            break;
          case FillRoute::kChained:
            // The staging feeding the hop is queued, or started this instant on an idle link.
            ASSERT_TRUE(store.StagePending(key) || store.nvme_link().busy_until() > now)
                << "op " << op;
            break;
          case FillRoute::kDirect:
            // The no-teleport property: only a configured direct path may route kDirect.
            ASSERT_TRUE(fuzz.allow_direct) << "NVMe->GPU teleport without host staging, op "
                                           << op;
            ASSERT_FALSE(store.StagePending(key)) << "op " << op;
            store.nvme_link().EnqueuePrefetch(now, key, kExpertBytes);
            ++ledger.direct_fills;
            break;
        }
        if (route != FillRoute::kDirect) {
          // The hop runs on a device link this driver does not model.
          store.gpu().Unpin(key);
          ASSERT_TRUE(store.gpu().Remove(key, nullptr));
        }
        break;
      }
      case 3: {  // GPU eviction victim carrying resident data demotes toward host.
        CacheEntry victim;
        victim.key = key;
        victim.bytes = kExpertBytes;
        victim.last_access = now;
        victim.frequency = rng.NextDouble();
        victim.probability = rng.NextDouble();
        store.DemoteGpuVictim(victim, now);
        break;
      }
      case 4: {  // Per-iteration host frequency aging.
        store.DecayHostFrequencies(0.6);
        break;
      }
      case 5: {  // Advance the NVMe link, landing staged transfers.
        store.Tick(now);
        break;
      }
    }

    ASSERT_TRUE(store.BookkeepingConsistent()) << "op " << op;
    ASSERT_LE(store.host().used_bytes(), store.host().capacity_bytes()) << "op " << op;
    ASSERT_GE(store.HostAvailableAt(key, now), now) << "op " << op;
    if (!fuzz.allow_direct) {
      // Every queued NVMe transfer is a pending staging and vice versa.
      ASSERT_EQ(store.pending_stage_count(), store.nvme_link().queued_prefetch_count())
          << "op " << op;
    }
  }

  // Flush: everything still queued starts and lands.
  now += 1e6;
  store.Tick(now);
  ASSERT_TRUE(store.BookkeepingConsistent());
  EXPECT_EQ(store.pending_stage_count(), 0u);
  EXPECT_EQ(store.nvme_link().queued_prefetch_count(), 0u);
  EXPECT_EQ(store.gpu().size(), 0u) << "every direct fill started";

  const TierStats& stats = store.stats();
  // Every issued staging either landed (its NVMe transfer started) or was promoted to a
  // demand load (cancelled while queued) — no third fate.
  EXPECT_EQ(stats.stages_landed, stats.stages_issued - stats.stage_promotions);
  EXPECT_EQ(ledger.stage_hook_fires, stats.stages_landed);
  EXPECT_EQ(ledger.direct_hook_fires, ledger.direct_fills);
  if (!fuzz.allow_direct) {
    EXPECT_EQ(stats.direct_loads, 0u);
  }

  // Link-side accounting reconciles with the independent ledger: demand loads we triggered,
  // prefetches that actually started (cancelled ones cost nothing).
  const PcieLink& nvme = store.nvme_link();
  EXPECT_EQ(nvme.demand_load_count(), ledger.demand_loads);
  EXPECT_EQ(nvme.prefetch_count(), stats.stages_landed + ledger.direct_fills);
  EXPECT_EQ(nvme.total_demand_bytes(), ledger.demand_loads * kExpertBytes);
  EXPECT_EQ(nvme.total_prefetch_bytes(),
            (stats.stages_landed + ledger.direct_fills) * kExpertBytes);

  // Virtual-time busy accounting: every started transfer occupies the link for exactly
  // TransferDuration(bytes), so the busy ledger sums to started * duration. The link accrues
  // (completion - start) per transfer, which rounds at the start instant's magnitude, so the
  // comparison is tight-tolerance rather than bitwise.
  const uint64_t started = nvme.demand_load_count() + nvme.prefetch_count();
  const double duration = nvme.TransferDuration(kExpertBytes);
  double expected_busy = 0.0;
  for (uint64_t i = 0; i < started; ++i) {
    expected_busy += duration;
  }
  EXPECT_NEAR(nvme.total_busy_sec(), expected_busy, 1e-9);
}

class TieredStorePropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool, const char*, uint64_t>> {};

TEST_P(TieredStorePropertyTest, InvariantsHoldUnderFuzzedSchedules) {
  FuzzConfig fuzz;
  fuzz.host_capacity = std::get<0>(GetParam());
  fuzz.allow_direct = std::get<1>(GetParam());
  fuzz.host_policy = std::get<2>(GetParam());
  fuzz.seed = std::get<3>(GetParam());
  RunSchedule(fuzz);
}

INSTANTIATE_TEST_SUITE_P(
    Hierarchies, TieredStorePropertyTest,
    ::testing::Combine(
        // 0 = two-tier GPU↔NVMe (transient stagings only); 90 = pressured host pool (spills);
        // 480 = host pool holding the whole key space.
        ::testing::Values(0ull, 90ull, 480ull),
        ::testing::Values(false, true),
        ::testing::Values("LRU", "fMoE-PriorityLFU"),
        ::testing::Values(3u, 71u, 2026u)),
    [](const ::testing::TestParamInfo<TieredStorePropertyTest::ParamType>& info) {
      std::string name = "host" + std::to_string(std::get<0>(info.param)) +
                         (std::get<1>(info.param) ? "_direct" : "_staged") + "_" +
                         std::get<2>(info.param) + "_seed" +
                         std::to_string(std::get<3>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Deterministic single-path checks that the fuzz could in principle miss.

TEST(TieredStoreTest, DisabledStoreIsInert) {
  // Without NVMe backing the host pool is every expert's infinite home: the store answers
  // every question as a host hit at `now`, and the host-pool, direct-path and NVMe-link knobs
  // stay inert even when set.
  TierConfig config;  // nvme_backing defaults off.
  config.allow_direct_nvme_gpu = true;
  config.host_capacity_bytes = 10 * kExpertBytes;
  config.host_policy = "LFU";
  const std::unique_ptr<EvictionPolicy> policy = MakeEvictionPolicy("LRU");
  TieredExpertStore store(kGpuCapacity, policy.get(), config);

  const double now = 2.5;
  store.Tick(now);
  double earliest = -1.0;
  EXPECT_EQ(store.PlanGpuFill(1, kExpertBytes, now, 0.5, &earliest), FillRoute::kFromHost);
  EXPECT_EQ(earliest, now);
  EXPECT_FALSE(store.DemandGoesDirect(1));
  StallTier source = StallTier::kNvme;
  EXPECT_EQ(store.EnsureHostSide(1, kExpertBytes, now, &source), now);
  EXPECT_EQ(source, StallTier::kHost);
  EXPECT_EQ(store.HostAvailableAt(1, now), now);
  EXPECT_FALSE(store.StageToHost(2, kExpertBytes, now, 0.5));
  CacheEntry victim;
  victim.key = 3;
  victim.bytes = kExpertBytes;
  victim.prefetch_pending = false;
  store.DemoteGpuVictim(victim, now);
  store.DecayHostFrequencies(0.5);
  store.Tick(now + 1.0);

  const TierStats& stats = store.stats();
  EXPECT_EQ(stats.host_hits + stats.nvme_hits + stats.gpu_fills_from_host +
                stats.gpu_fills_chained + stats.direct_loads + stats.stages_issued +
                stats.stages_landed + stats.stage_promotions + stats.demotions_to_host +
                stats.demotions_to_nvme + stats.host_spills,
            0u);
  const PcieLink& nvme = store.nvme_link();
  EXPECT_EQ(nvme.demand_load_count() + nvme.prefetch_count() + nvme.queued_prefetch_count(), 0u);
  EXPECT_EQ(store.host().capacity_bytes(), 0u);
  EXPECT_EQ(store.host().size(), 0u);
  EXPECT_EQ(store.pending_stage_count(), 0u);
  EXPECT_TRUE(store.BookkeepingConsistent());
}

TEST(TieredStoreTest, QueuedStagePromotesToDemandLoadOnce) {
  TierConfig config;
  config.nvme_backing = true;
  config.host_capacity_bytes = 100;
  const std::unique_ptr<EvictionPolicy> policy = MakeEvictionPolicy("LRU");
  TieredExpertStore store(kGpuCapacity, policy.get(), config);

  // Occupy the link first: an idle link starts (and thus lands) a staging immediately.
  store.nvme_link().DemandLoad(0.0, kExpertBytes);
  ASSERT_TRUE(store.StageToHost(7, kExpertBytes, 0.0, 0.9));
  EXPECT_EQ(store.pending_stage_count(), 1u);

  // Promote while the staging is still queued: the prefetch is cancelled, a demand load runs.
  StallTier source = StallTier::kHost;
  const double ready = store.EnsureHostSide(7, kExpertBytes, 0.0, &source);
  EXPECT_EQ(source, StallTier::kNvme);
  EXPECT_EQ(store.pending_stage_count(), 0u);
  EXPECT_EQ(store.stats().stage_promotions, 1u);
  EXPECT_EQ(store.nvme_link().demand_load_count(), 2u);
  EXPECT_EQ(store.nvme_link().prefetch_count(), 0u);  // Cancelled before it started.

  // The promoted copy is now a committed host entry: the next fill is a host hit.
  double earliest = 0.0;
  EXPECT_EQ(store.PlanGpuFill(7, kExpertBytes, 0.0, 0.9, &earliest), FillRoute::kFromHost);
  EXPECT_EQ(earliest, ready);
  EXPECT_TRUE(store.BookkeepingConsistent());
}

TEST(TieredStoreTest, HostPoolFullOfPinnedStagesFallsBackToTransient) {
  TierConfig config;
  config.nvme_backing = true;
  config.host_capacity_bytes = 2 * kExpertBytes;
  const std::unique_ptr<EvictionPolicy> policy = MakeEvictionPolicy("LRU");
  TieredExpertStore store(kGpuCapacity, policy.get(), config);

  // Occupy the link so the stagings stay queued — and therefore pinned.
  store.nvme_link().DemandLoad(0.0, kExpertBytes);
  // Fill the pool with pinned (queued) stagings.
  ASSERT_TRUE(store.StageToHost(1, kExpertBytes, 0.0, 0.5));
  ASSERT_TRUE(store.StageToHost(2, kExpertBytes, 0.0, 0.5));
  // A speculative staging that cannot be host-backed is dropped...
  EXPECT_FALSE(store.StageToHost(3, kExpertBytes, 0.0, 0.5));
  // ...but a GPU fill never fails: it rides a transient bounce buffer instead.
  double earliest = 0.0;
  EXPECT_EQ(store.PlanGpuFill(3, kExpertBytes, 0.0, 0.5, &earliest), FillRoute::kChained);
  EXPECT_TRUE(store.StagePending(3));
  EXPECT_FALSE(store.HostResident(3));
  EXPECT_TRUE(store.BookkeepingConsistent());

  // After the flush the transient staging leaves no host entry behind.
  store.Tick(1e6);
  EXPECT_EQ(store.pending_stage_count(), 0u);
  EXPECT_FALSE(store.HostResident(3));
  EXPECT_TRUE(store.HostResident(1));
  EXPECT_TRUE(store.HostResident(2));
  EXPECT_TRUE(store.BookkeepingConsistent());
}

}  // namespace
}  // namespace fmoe
