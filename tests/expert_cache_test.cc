#include "src/cache/expert_cache.h"

#include <gtest/gtest.h>

#include <utility>

namespace fmoe {
namespace {

CacheEntry Entry(uint64_t key, uint64_t bytes = 10) {
  CacheEntry entry;
  entry.key = key;
  entry.bytes = bytes;
  entry.prefetch_pending = false;
  return entry;
}

class ExpertCacheTest : public ::testing::Test {
 protected:
  LruEvictionPolicy lru_;
  LfuEvictionPolicy lfu_;
  PriorityLfuEvictionPolicy priority_;
};

TEST_F(ExpertCacheTest, InsertAndFind) {
  ExpertCache cache(100, &lru_);
  EXPECT_TRUE(cache.Insert(Entry(1), 0.0, nullptr));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.used_bytes(), 10u);
  EXPECT_TRUE(static_cast<bool>(cache.Find(1)));
  EXPECT_FALSE(static_cast<bool>(cache.Find(2)));
}

TEST_F(ExpertCacheTest, DuplicateInsertRejected) {
  ExpertCache cache(100, &lru_);
  EXPECT_TRUE(cache.Insert(Entry(1), 0.0, nullptr));
  EXPECT_FALSE(cache.Insert(Entry(1), 0.0, nullptr));
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(ExpertCacheTest, OversizedEntryRejected) {
  ExpertCache cache(100, &lru_);
  EXPECT_FALSE(cache.Insert(Entry(1, 200), 0.0, nullptr));
  EXPECT_EQ(cache.stats().rejected_insertions, 1u);
}

TEST_F(ExpertCacheTest, EvictsLruVictimWhenFull) {
  ExpertCache cache(30, &lru_);
  CacheEntry a = Entry(1);
  a.last_access = 1.0;
  CacheEntry b = Entry(2);
  b.last_access = 5.0;
  CacheEntry c = Entry(3);
  c.last_access = 3.0;
  cache.Insert(a, 1.0, nullptr);
  cache.Insert(b, 5.0, nullptr);
  cache.Insert(c, 5.5, nullptr);
  std::vector<CacheEntry> evicted;
  EXPECT_TRUE(cache.Insert(Entry(4), 6.0, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 1u);  // Oldest access evicted.
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(4));
}

TEST_F(ExpertCacheTest, EvictsMultipleVictimsForLargeEntry) {
  ExpertCache cache(30, &lru_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Insert(Entry(2), 1.0, nullptr);
  cache.Insert(Entry(3), 2.0, nullptr);
  std::vector<CacheEntry> evicted;
  EXPECT_TRUE(cache.Insert(Entry(4, 25), 3.0, &evicted));
  // 25 bytes into a 30-byte cache holding 3x10: all three victims must go.
  EXPECT_EQ(evicted.size(), 3u);
  EXPECT_EQ(cache.used_bytes(), 25u);
}

TEST_F(ExpertCacheTest, PinnedEntriesAreNotEvicted) {
  ExpertCache cache(20, &lru_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Insert(Entry(2), 1.0, nullptr);
  cache.Pin(1);
  std::vector<CacheEntry> evicted;
  EXPECT_TRUE(cache.Insert(Entry(3), 2.0, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 2u);  // Key 1 was older but pinned.
  cache.Unpin(1);
}

TEST_F(ExpertCacheTest, InsertFailsAndRollsBackWhenEverythingPinned) {
  ExpertCache cache(20, &lru_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Insert(Entry(2), 1.0, nullptr);
  cache.Pin(1);
  cache.Pin(2);
  std::vector<CacheEntry> evicted;
  EXPECT_FALSE(cache.Insert(Entry(3), 2.0, &evicted));
  // Nothing changed: both pinned entries still resident, no phantom eviction.
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_FALSE(cache.Contains(3));
  EXPECT_EQ(cache.used_bytes(), 20u);
  EXPECT_EQ(cache.stats().rejected_insertions, 1u);
}

TEST_F(ExpertCacheTest, RollbackRestoresVictimsWhenInsertUltimatelyFails) {
  ExpertCache cache(30, &lru_);
  CacheEntry unpinned = Entry(1);
  unpinned.last_access = 0.0;
  cache.Insert(unpinned, 0.0, nullptr);
  cache.Insert(Entry(2), 1.0, nullptr);
  cache.Insert(Entry(3), 2.0, nullptr);
  cache.Pin(2);
  cache.Pin(3);
  // Inserting a 25-byte entry requires evicting 2 victims but only one is unpinned.
  std::vector<CacheEntry> evicted;
  EXPECT_FALSE(cache.Insert(Entry(4, 25), 3.0, &evicted));
  EXPECT_TRUE(cache.Contains(1));  // Tentative victim restored.
  EXPECT_EQ(cache.used_bytes(), 30u);
}

TEST_F(ExpertCacheTest, RemoveReturnsEntry) {
  ExpertCache cache(100, &lru_);
  CacheEntry entry = Entry(5);
  entry.probability = 0.7;
  cache.Insert(entry, 0.0, nullptr);
  CacheEntry removed;
  EXPECT_TRUE(cache.Remove(5, &removed));
  EXPECT_DOUBLE_EQ(removed.probability, 0.7);
  EXPECT_FALSE(cache.Contains(5));
  EXPECT_EQ(cache.used_bytes(), 0u);
  EXPECT_FALSE(cache.Remove(5, nullptr));
}

TEST_F(ExpertCacheTest, TouchBumpsFrequencyAndRecency) {
  ExpertCache cache(100, &lfu_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Touch(1, 3.0);
  cache.Touch(1, 4.0);
  const ConstEntryRef entry = std::as_const(cache).Find(1);
  ASSERT_TRUE(static_cast<bool>(entry));
  EXPECT_DOUBLE_EQ(entry.frequency(), 2.0);
  EXPECT_DOUBLE_EQ(entry.last_access(), 4.0);
}

TEST_F(ExpertCacheTest, DecayFrequenciesAges) {
  ExpertCache cache(100, &lfu_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Touch(1, 1.0);
  cache.DecayFrequencies(0.5);
  EXPECT_DOUBLE_EQ(cache.Find(1).frequency(), 0.5);
}

TEST_F(ExpertCacheTest, SetProbabilityOnlyAffectsResident) {
  ExpertCache cache(100, &priority_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.SetProbability(1, 0.42);
  cache.SetProbability(2, 0.99);  // Absent: silently ignored.
  EXPECT_DOUBLE_EQ(cache.Find(1).probability(), 0.42);
}

TEST_F(ExpertCacheTest, LfuEvictsLeastFrequent) {
  ExpertCache cache(20, &lfu_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Insert(Entry(2), 0.0, nullptr);
  cache.Touch(1, 1.0);
  cache.Touch(1, 2.0);
  cache.Touch(2, 3.0);
  std::vector<CacheEntry> evicted;
  cache.Insert(Entry(3), 4.0, &evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 2u);
}

TEST_F(ExpertCacheTest, PriorityLfuKeepsHighProbabilityExpert) {
  ExpertCache cache(20, &priority_);
  CacheEntry likely = Entry(1);
  likely.probability = 0.9;
  CacheEntry unlikely = Entry(2);
  unlikely.probability = 0.05;
  cache.Insert(likely, 0.0, nullptr);
  cache.Insert(unlikely, 0.0, nullptr);
  std::vector<CacheEntry> evicted;
  cache.Insert(Entry(3), 1.0, &evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 2u);
}

TEST_F(ExpertCacheTest, EvictionOrderSortsMostEvictableFirst) {
  ExpertCache cache(100, &lru_);
  for (uint64_t key = 1; key <= 4; ++key) {
    CacheEntry entry = Entry(key);
    entry.last_access = static_cast<double>(key);
    cache.Insert(entry, entry.last_access, nullptr);
  }
  cache.Pin(2);
  const std::vector<uint64_t> order = cache.EvictionOrder(10.0);
  ASSERT_EQ(order.size(), 3u);  // Pinned entry excluded.
  EXPECT_EQ(order[0], 1u);      // Oldest first.
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 4u);
  cache.Unpin(2);
}

TEST_F(ExpertCacheTest, KeysReturnsAllResidents) {
  ExpertCache cache(100, &lru_);
  cache.Insert(Entry(7), 0.0, nullptr);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Insert(Entry(4), 0.0, nullptr);
  EXPECT_EQ(cache.Keys(), (std::vector<uint64_t>{1, 4, 7}));
}

TEST_F(ExpertCacheTest, EqualScoresEvictNewestInsertedFirst) {
  // Zero-frequency LFU entries all sit on the frequency floor, so every score ties exactly.
  ExpertCache cache(40, &lfu_);
  for (const uint64_t key : {5u, 2u, 9u, 1u}) {
    cache.Insert(Entry(key), 0.0, nullptr);
  }
  EXPECT_EQ(cache.EvictionOrder(1.0), (std::vector<uint64_t>{1, 9, 2, 5}));
  std::vector<CacheEntry> evicted;
  ASSERT_TRUE(cache.Insert(Entry(3), 1.0, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 1u);
  // The new entry is now the newest on the plateau.
  ASSERT_TRUE(cache.Insert(Entry(8), 2.0, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, 3u);
}

TEST_F(ExpertCacheTest, RejectedInsertKeepsTieOrder) {
  ExpertCache cache(50, &lfu_);
  for (uint64_t key = 1; key <= 5; ++key) {
    cache.Insert(Entry(key), 0.0, nullptr);
  }
  for (uint64_t key = 1; key <= 3; ++key) {
    cache.Pin(key);
  }
  const std::vector<uint64_t> order_before = cache.EvictionOrder(1.0);
  ASSERT_EQ(order_before, (std::vector<uint64_t>{5, 4}));
  // Needs four slots but only two are evictable: 5 and 4 are evicted tentatively, then the
  // insert runs out of victims and both go home.
  EXPECT_FALSE(cache.Insert(Entry(6, 40), 1.0, nullptr));
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.EvictionOrder(1.0), order_before);
  std::vector<CacheEntry> evicted;
  ASSERT_TRUE(cache.Insert(Entry(7), 2.0, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].key, order_before.front());
}

TEST_F(ExpertCacheTest, StatsCountInsertionsAndEvictions) {
  ExpertCache cache(20, &lru_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Insert(Entry(2), 1.0, nullptr);
  cache.Insert(Entry(3), 2.0, nullptr);  // Evicts one.
  EXPECT_EQ(cache.stats().insertions, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST_F(ExpertCacheTest, NestedPinUnpin) {
  ExpertCache cache(10, &lru_);
  cache.Insert(Entry(1), 0.0, nullptr);
  cache.Pin(1);
  cache.Pin(1);
  cache.Unpin(1);
  // Still pinned once: not evictable.
  std::vector<CacheEntry> evicted;
  EXPECT_FALSE(cache.Insert(Entry(2), 1.0, &evicted));
  cache.Unpin(1);
  EXPECT_TRUE(cache.Insert(Entry(2), 2.0, &evicted));
}

}  // namespace
}  // namespace fmoe
