#include "src/workload/workload.h"

#include <map>

#include <gtest/gtest.h>

namespace fmoe {
namespace {

TEST(WorkloadGeneratorTest, GeneratesRequestedCount) {
  WorkloadGenerator generator(LmsysLikeProfile(), 1);
  EXPECT_EQ(generator.Generate(100).size(), 100u);
}

TEST(WorkloadGeneratorTest, Deterministic) {
  WorkloadGenerator a(LmsysLikeProfile(), 42);
  WorkloadGenerator b(LmsysLikeProfile(), 42);
  const auto ra = a.Generate(50);
  const auto rb = b.Generate(50);
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].routing.cluster, rb[i].routing.cluster);
    EXPECT_EQ(ra[i].routing.seed, rb[i].routing.seed);
    EXPECT_EQ(ra[i].prompt_tokens, rb[i].prompt_tokens);
    EXPECT_EQ(ra[i].decode_tokens, rb[i].decode_tokens);
  }
}

TEST(WorkloadGeneratorTest, IdsAreSequentialAndUnique) {
  WorkloadGenerator generator(LmsysLikeProfile(), 3);
  const auto requests = generator.Generate(20);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].id, i);
  }
}

TEST(WorkloadGeneratorTest, LengthsRespectCaps) {
  DatasetProfile profile = LmsysLikeProfile();
  profile.max_prompt_tokens = 100;
  profile.min_prompt_tokens = 10;
  profile.max_decode_tokens = 20;
  profile.min_decode_tokens = 5;
  WorkloadGenerator generator(profile, 5);
  for (const Request& r : generator.Generate(500)) {
    EXPECT_GE(r.prompt_tokens, 10);
    EXPECT_LE(r.prompt_tokens, 100);
    EXPECT_GE(r.decode_tokens, 5);
    EXPECT_LE(r.decode_tokens, 20);
  }
}

// A decode cap below the dataset's minimum lowers the minimum too, so every length is the cap.
TEST(WorkloadGeneratorTest, DecodeCapBelowTheMinimumHolds) {
  for (int cap = 1; cap <= 3; ++cap) {
    const DatasetProfile profile = CapDecodeTokens(LmsysLikeProfile(), cap);
    EXPECT_LE(profile.min_decode_tokens, profile.max_decode_tokens);
    WorkloadGenerator generator(profile, 11);
    for (const Request& r : generator.Generate(200)) {
      EXPECT_GE(r.decode_tokens, 1) << cap;
      EXPECT_LE(r.decode_tokens, cap);
    }
  }
  EXPECT_EQ(CapDecodeTokens(LmsysLikeProfile(), 0).max_decode_tokens,
            LmsysLikeProfile().max_decode_tokens);  // 0 keeps the dataset's cap.
}

using WorkloadGeneratorDeathTest = ::testing::Test;

TEST(WorkloadGeneratorDeathTest, UnorderedLengthBoundsAbort) {
  DatasetProfile profile = LmsysLikeProfile();
  profile.max_decode_tokens = profile.min_decode_tokens - 1;
  EXPECT_DEATH(WorkloadGenerator(profile, 1), "min_decode_tokens");
}

TEST(WorkloadGeneratorTest, ClustersWithinRange) {
  const DatasetProfile profile = LmsysLikeProfile();
  WorkloadGenerator generator(profile, 7);
  for (const Request& r : generator.Generate(500)) {
    EXPECT_GE(r.routing.cluster, 0);
    EXPECT_LT(r.routing.cluster, profile.num_clusters);
    EXPECT_GE(r.routing.blend_cluster, 0);
    EXPECT_LT(r.routing.blend_cluster, profile.num_clusters);
  }
}

TEST(WorkloadGeneratorTest, ClusterSkewFavoursLowClusters) {
  DatasetProfile profile = LmsysLikeProfile();
  profile.cluster_skew = 1.2;
  WorkloadGenerator generator(profile, 11);
  std::map<int, int> counts;
  for (const Request& r : generator.Generate(3000)) {
    counts[r.routing.cluster]++;
  }
  EXPECT_GT(counts[0], counts[profile.num_clusters - 1]);
}

TEST(WorkloadGeneratorTest, BlendProbabilityRoughlyHolds) {
  DatasetProfile profile = LmsysLikeProfile();
  profile.blend_probability = 0.5;
  WorkloadGenerator generator(profile, 13);
  int blended = 0;
  const int n = 2000;
  for (const Request& r : generator.Generate(n)) {
    if (r.routing.blend_weight > 0.0) {
      ++blended;
      EXPECT_NE(r.routing.blend_cluster, r.routing.cluster);
      EXPECT_LE(r.routing.blend_weight, profile.max_blend_weight);
    }
  }
  EXPECT_NEAR(static_cast<double>(blended) / n, 0.5, 0.05);
}

TEST(WorkloadGeneratorTest, NoiseMultiplierWithinConfiguredRange) {
  const DatasetProfile profile = LmsysLikeProfile();
  WorkloadGenerator generator(profile, 17);
  for (const Request& r : generator.Generate(500)) {
    EXPECT_GE(r.routing.noise_multiplier, profile.min_noise_multiplier);
    EXPECT_LE(r.routing.noise_multiplier, profile.max_noise_multiplier);
  }
}

TEST(WorkloadGeneratorTest, ShareGptPromptsLongerThanLmsysOnAverage) {
  WorkloadGenerator lmsys(LmsysLikeProfile(), 19);
  WorkloadGenerator sharegpt(ShareGptLikeProfile(), 19);
  double lmsys_total = 0.0;
  double sharegpt_total = 0.0;
  const size_t n = 1000;
  for (const Request& r : lmsys.Generate(n)) {
    lmsys_total += r.prompt_tokens;
  }
  for (const Request& r : sharegpt.Generate(n)) {
    sharegpt_total += r.prompt_tokens;
  }
  EXPECT_GT(sharegpt_total, lmsys_total);
}

TEST(SplitWorkloadTest, SeventyThirtySplit) {
  WorkloadGenerator generator(LmsysLikeProfile(), 23);
  const WorkloadSplit split = SplitWorkload(generator.Generate(100), 0.7);
  EXPECT_EQ(split.history.size(), 70u);
  EXPECT_EQ(split.test.size(), 30u);
}

TEST(SplitWorkloadTest, ExtremesAreSafe) {
  WorkloadGenerator generator(LmsysLikeProfile(), 29);
  const auto requests = generator.Generate(10);
  EXPECT_EQ(SplitWorkload(requests, 0.0).history.size(), 0u);
  EXPECT_EQ(SplitWorkload(requests, 1.0).test.size(), 0u);
}

TEST(DatasetProfilesTest, AllPaperDatasetsReturnsTwo) {
  const auto datasets = AllPaperDatasets();
  ASSERT_EQ(datasets.size(), 2u);
  EXPECT_NE(datasets[0].name, datasets[1].name);
}

}  // namespace
}  // namespace fmoe
