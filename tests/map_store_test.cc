#include "src/core/map_store.h"

#include <gtest/gtest.h>

namespace fmoe {
namespace {

ModelConfig Tiny() { return TinyTestConfig(); }

// A record whose map is uniform except a spike at (0, spike_expert), with a simple embedding.
StoredIteration MakeRecord(uint64_t request_id, int spike_expert, double embedding_x = 1.0,
                           double embedding_y = 0.0) {
  const ModelConfig cfg = Tiny();
  StoredIteration record;
  record.request_id = request_id;
  record.map = ExpertMap(cfg.num_layers, cfg.experts_per_layer);
  std::vector<double> row(static_cast<size_t>(cfg.experts_per_layer),
                          0.1 / (cfg.experts_per_layer - 1));
  row[static_cast<size_t>(spike_expert)] = 0.9;
  for (int l = 0; l < cfg.num_layers; ++l) {
    record.map.SetLayer(l, row);
  }
  record.embedding = {embedding_x, embedding_y};
  return record;
}

TEST(ExpertMapStoreTest, FillsToCapacity) {
  ExpertMapStore store(Tiny(), 3, 1);
  EXPECT_EQ(store.capacity(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(store.Insert(MakeRecord(static_cast<uint64_t>(i), i % 6)), 0u);
  }
  EXPECT_EQ(store.size(), 3u);
}

TEST(ExpertMapStoreTest, InsertRejectsProbabilitiesOutsideUnitRange) {
  ExpertMapStore store(Tiny(), 4, 1, StoreDedupPolicy::kRedundancy, MapPrecision::kInt8);
  StoredIteration huge = MakeRecord(7, 0);
  std::vector<double> row(static_cast<size_t>(Tiny().experts_per_layer), 0.0);
  row[0] = 3.0e38;
  huge.map.SetLayer(0, row);
  EXPECT_DEATH(store.Insert(huge), "outside \\[0, 1\\]");
  StoredIteration negative = MakeRecord(8, 0);
  row[0] = -0.5;
  negative.map.SetLayer(0, row);
  EXPECT_DEATH(store.Insert(negative), "outside \\[0, 1\\]");
  EXPECT_EQ(store.size(), 0u);
}

TEST(ExpertMapStoreTest, DedupReplacesMostRedundantRecord) {
  ExpertMapStore store(Tiny(), 2, 1);
  store.Insert(MakeRecord(1, 0, 1.0, 0.0));  // Spike at expert 0, embedding (1,0).
  store.Insert(MakeRecord(2, 3, 0.0, 1.0));  // Spike at expert 3, embedding (0,1).
  // New record nearly identical to request 1: it should replace request 1, keeping diversity.
  const uint64_t flops = store.Insert(MakeRecord(3, 0, 0.99, 0.05));
  EXPECT_GT(flops, 0u);
  EXPECT_EQ(store.size(), 2u);
  bool has_new = false;
  bool has_distinct = false;
  for (size_t i = 0; i < store.size(); ++i) {
    has_new |= store.Get(i).request_id == 3;
    has_distinct |= store.Get(i).request_id == 2;
  }
  EXPECT_TRUE(has_new);
  EXPECT_TRUE(has_distinct);
}

TEST(ExpertMapStoreTest, SemanticSearchFindsClosestEmbedding) {
  ExpertMapStore store(Tiny(), 4, 1);
  store.Insert(MakeRecord(1, 0, 1.0, 0.0));
  store.Insert(MakeRecord(2, 1, 0.0, 1.0));
  const std::vector<double> query{0.9, 0.1};
  const SearchResult result = store.SemanticSearch(query);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(store.Get(result.index).request_id, 1u);
  EXPECT_GT(result.score, 0.9);
  EXPECT_GT(result.flops, 0u);
}

TEST(ExpertMapStoreTest, SemanticSearchSkipsMismatchedDimensions) {
  ExpertMapStore store(Tiny(), 4, 1);
  store.Insert(MakeRecord(1, 0));
  const std::vector<double> query{1.0, 0.0, 0.0};  // 3-d vs stored 2-d.
  EXPECT_FALSE(store.SemanticSearch(query).found);
}

TEST(ExpertMapStoreTest, TrajectorySearchFindsMatchingPrefix) {
  const ModelConfig cfg = Tiny();
  ExpertMapStore store(cfg, 4, 1);
  store.Insert(MakeRecord(1, 0));
  store.Insert(MakeRecord(2, 4));
  // Query prefix = first two layers of record 2's map.
  const StoredIteration probe = MakeRecord(99, 4);
  const auto prefix = probe.map.Prefix(2);
  const SearchResult result =
      store.TrajectorySearch(std::vector<double>(prefix.begin(), prefix.end()), 2);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(store.Get(result.index).request_id, 2u);
  // The search engine quantizes to float and accumulates in float blocks; scores carry a few
  // ulps of single-precision error (the engine-wide 1e-6 contract, see map_store_search_test).
  EXPECT_NEAR(result.score, 1.0, 1e-6);
}

TEST(ExpertMapStoreTest, EmptyStoreSearchesFindNothing) {
  ExpertMapStore store(Tiny(), 4, 1);
  EXPECT_FALSE(store.SemanticSearch(std::vector<double>{1.0, 0.0}).found);
  EXPECT_FALSE(store.TrajectorySearch(std::vector<double>{}, 0).found);
}

TEST(ExpertMapStoreTest, MemoryBytesTracksContents) {
  const ModelConfig cfg = Tiny();
  ExpertMapStore store(cfg, 10, 1);
  EXPECT_EQ(store.MemoryBytes(), 0u);
  store.Insert(MakeRecord(1, 0));
  const size_t per_record =
      static_cast<size_t>(cfg.num_layers * cfg.experts_per_layer) * sizeof(float) +
      2 * sizeof(float);
  EXPECT_EQ(store.MemoryBytes(), per_record);
  store.Insert(MakeRecord(2, 1));
  EXPECT_EQ(store.MemoryBytes(), 2 * per_record);
}

TEST(ExpertMapStoreTest, MemoryBytesAtCapacityMatchesPaperScale) {
  // Fig. 16 anchor: 32K Mixtral maps plus embeddings stay under 200 MB.
  ExpertMapStore store(MixtralConfig(), 32000, 3);
  const size_t bytes = store.MemoryBytesAtCapacity(/*embedding_dim=*/72);
  EXPECT_LT(bytes, 200u * 1024 * 1024);
  EXPECT_GT(bytes, 10u * 1024 * 1024);
}

TEST(ExpertMapStoreTest, ClearEmptiesStore) {
  ExpertMapStore store(Tiny(), 4, 1);
  store.Insert(MakeRecord(1, 0));
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
}

TEST(ExpertMapStoreTest, SizeNeverExceedsCapacity) {
  ExpertMapStore store(Tiny(), 5, 1);
  for (int i = 0; i < 50; ++i) {
    store.Insert(MakeRecord(static_cast<uint64_t>(i), i % 6,
                            static_cast<double>(i % 3), static_cast<double>((i + 1) % 3)));
    EXPECT_LE(store.size(), 5u);
  }
  EXPECT_EQ(store.size(), 5u);
}

TEST(ExpertMapStoreTest, FifoReplacementCyclesSlots) {
  ExpertMapStore store(Tiny(), 2, 1, StoreDedupPolicy::kFifo);
  store.Insert(MakeRecord(1, 0));
  store.Insert(MakeRecord(2, 1));
  EXPECT_EQ(store.Insert(MakeRecord(3, 2)), 0u);  // FIFO insert does no RDY work.
  EXPECT_EQ(store.Get(0).request_id, 3u);         // Oldest slot replaced first.
  EXPECT_EQ(store.Get(1).request_id, 2u);
  store.Insert(MakeRecord(4, 3));
  EXPECT_EQ(store.Get(1).request_id, 4u);
  store.Insert(MakeRecord(5, 4));
  EXPECT_EQ(store.Get(0).request_id, 5u);  // Wraps around.
}

TEST(ExpertMapStoreTest, FifoIgnoresRedundancy) {
  // Unlike RDY dedup, FIFO replaces the oldest record even if the newcomer duplicates a
  // different one.
  ExpertMapStore store(Tiny(), 2, 1, StoreDedupPolicy::kFifo);
  store.Insert(MakeRecord(1, 0, 1.0, 0.0));
  store.Insert(MakeRecord(2, 3, 0.0, 1.0));
  store.Insert(MakeRecord(3, 3, 0.0, 1.0));  // Duplicates record 2 but evicts record 1.
  bool has_1 = false;
  for (size_t i = 0; i < store.size(); ++i) {
    has_1 |= store.Get(i).request_id == 1;
  }
  EXPECT_FALSE(has_1);
}

TEST(ExpertMapStoreTest, InsertWorkScalesWithStoreSize) {
  ExpertMapStore small(Tiny(), 2, 1);
  ExpertMapStore large(Tiny(), 8, 1);
  for (int i = 0; i < 8; ++i) {
    small.Insert(MakeRecord(static_cast<uint64_t>(i), i % 6));
    large.Insert(MakeRecord(static_cast<uint64_t>(i), i % 6));
  }
  // Both are now full; a dedup insert scans all records.
  const uint64_t small_flops = small.Insert(MakeRecord(100, 1));
  const uint64_t large_flops = large.Insert(MakeRecord(100, 1));
  EXPECT_GT(large_flops, small_flops);
}

}  // namespace
}  // namespace fmoe
