// Cross-module integration tests: run the experiment harness end-to-end on scaled-down
// workloads and assert the headline claims of the paper hold directionally.
#include "src/harness/experiment.h"

#include <gtest/gtest.h>

namespace fmoe {
namespace {

ExperimentOptions FastOptions() {
  ExperimentOptions options;
  options.model = TinyTestConfig();
  options.dataset = LmsysLikeProfile();
  options.dataset.num_clusters = 8;
  options.history_requests = 40;
  options.test_requests = 12;
  options.max_decode_tokens = 16;
  options.store_capacity = 128;
  options.prefetch_distance = 2;
  options.cache_fraction = 0.3;
  // Two devices for the six-expert tiny model: without link contention, parallel demand
  // transfers hide per-layer misses and latency differences between policies vanish.
  options.gpu_count = 2;
  return options;
}

TEST(IntegrationTest, FmoeBeatsOnDemandBaseline) {
  const ExperimentOptions options = FastOptions();
  const ExperimentResult fmoe = RunExperiment({.system = "fMoE", .options = options});
  const ExperimentResult deepspeed = RunExperiment(
      {.system = "DeepSpeed-Inference", .options = options});
  EXPECT_LT(fmoe.mean_tpot, deepspeed.mean_tpot);
  EXPECT_GT(fmoe.hit_rate, deepspeed.hit_rate);
}

TEST(IntegrationTest, FmoeBeatsCoarseGrainedTracking) {
  const ExperimentOptions options = FastOptions();
  const ExperimentResult fmoe = RunExperiment({.system = "fMoE", .options = options});
  const ExperimentResult eam = RunExperiment({.system = "MoE-Infinity", .options = options});
  EXPECT_GT(fmoe.hit_rate, eam.hit_rate);
  EXPECT_LT(fmoe.mean_tpot, eam.mean_tpot);
}

TEST(IntegrationTest, SynchronousSpeculationHasHighHitRateButWorseLatencyThanFmoe) {
  const ExperimentOptions options = FastOptions();
  const ExperimentResult fmoe = RunExperiment({.system = "fMoE", .options = options});
  const ExperimentResult mixtral = RunExperiment(
      {.system = "Mixtral-Offloading", .options = options});
  const ExperimentResult deepspeed = RunExperiment(
      {.system = "DeepSpeed-Inference", .options = options});
  // Fig. 9 shape: synchronous speculation buys hit rate over on-demand loading, but fMoE
  // still wins end-to-end latency.
  EXPECT_GT(mixtral.hit_rate, deepspeed.hit_rate + 0.1);
  EXPECT_LT(fmoe.mean_tpot, mixtral.mean_tpot);
}

TEST(IntegrationTest, ResultsAreDeterministic) {
  const ExperimentOptions options = FastOptions();
  const ExperimentResult a = RunExperiment({.system = "fMoE", .options = options});
  const ExperimentResult b = RunExperiment({.system = "fMoE", .options = options});
  EXPECT_DOUBLE_EQ(a.mean_tpot, b.mean_tpot);
  EXPECT_DOUBLE_EQ(a.mean_ttft, b.mean_ttft);
  EXPECT_DOUBLE_EQ(a.hit_rate, b.hit_rate);
}

TEST(IntegrationTest, DifferentSeedsStillPreserveOrdering) {
  ExperimentOptions options = FastOptions();
  options.seed = 777;
  const ExperimentResult fmoe = RunExperiment({.system = "fMoE", .options = options});
  const ExperimentResult deepspeed = RunExperiment(
      {.system = "DeepSpeed-Inference", .options = options});
  EXPECT_LT(fmoe.mean_tpot, deepspeed.mean_tpot);
}

TEST(IntegrationTest, LargerCacheImprovesOnDemandLatency) {
  ExperimentOptions small = FastOptions();
  small.cache_fraction = 0.15;
  ExperimentOptions large = FastOptions();
  large.cache_fraction = 0.9;
  const ExperimentResult slow = RunExperiment({.system = "DeepSpeed-Inference", .options = small});
  const ExperimentResult fast = RunExperiment({.system = "DeepSpeed-Inference", .options = large});
  EXPECT_LE(fast.mean_tpot, slow.mean_tpot);
}

TEST(IntegrationTest, NoOffloadIsFastest) {
  const ExperimentOptions options = FastOptions();
  const ExperimentResult resident = RunExperiment({.system = "No-offload", .options = options});
  const ExperimentResult fmoe = RunExperiment({.system = "fMoE", .options = options});
  EXPECT_LT(resident.mean_tpot, fmoe.mean_tpot);
  EXPECT_DOUBLE_EQ(resident.hit_rate, 1.0);
}

TEST(IntegrationTest, AblationHierarchyHolds) {
  // Fig. 12a: adding semantic search and the dynamic threshold should not hurt, and the full
  // system should clearly beat coarse hit-count tracking.
  const ExperimentOptions options = FastOptions();
  const double full = RunExperiment({.system = "Map(T+S+d)", .options = options}).hit_rate;
  const double hit_count = RunExperiment({.system = "HitCount", .options = options}).hit_rate;
  EXPECT_GT(full, hit_count);
}

TEST(IntegrationTest, OnlineServingProducesLatencies) {
  ExperimentOptions options = FastOptions();
  TraceProfile trace;
  trace.mean_arrival_rate = 5.0;
  const ExperimentResult result = RunExperiment(
      {.system = "fMoE", .options = options, .source = RequestSource::kTrace, .trace = trace,
       .request_count = 16});
  ASSERT_EQ(result.request_latencies.size(), 16u);
  for (double latency : result.request_latencies) {
    EXPECT_GT(latency, 0.0);
  }
}

TEST(IntegrationTest, OnlineFmoeBeatsOnlineDeepSpeed) {
  // Cold-start online serving (§6.3): fMoE's store fills as requests stream in, so give the
  // run enough requests and decode length for the learning effect to show.
  ExperimentOptions options = FastOptions();
  options.max_decode_tokens = 24;
  TraceProfile trace;
  trace.mean_arrival_rate = 2.0;
  const ExperimentResult fmoe = RunExperiment(
      {.system = "fMoE", .options = options, .source = RequestSource::kTrace, .trace = trace,
       .request_count = 40});
  const ExperimentResult deepspeed = RunExperiment(
      {.system = "DeepSpeed-Inference", .options = options, .source = RequestSource::kTrace,
       .trace = trace, .request_count = 40});
  EXPECT_LT(fmoe.mean_e2e, deepspeed.mean_e2e);
}

TEST(IntegrationTest, ScoreLogAlignsWithIterationRecords) {
  ExperimentOptions options = FastOptions();
  options.enable_score_log = true;
  options.keep_iteration_records = true;
  const ExperimentResult result = RunExperiment({.system = "fMoE", .options = options});
  EXPECT_EQ(result.score_log.size(), result.iteration_records.size());
  EXPECT_GT(result.mean_semantic_score, 0.0);
}

TEST(IntegrationTest, ResolveCacheBytesUsesFractionOrOverride) {
  ExperimentOptions options = FastOptions();
  options.cache_fraction = 0.5;
  options.cache_bytes = 0;
  EXPECT_EQ(ResolveCacheBytes(options),
            static_cast<uint64_t>(0.5 * options.model.total_expert_bytes()));
  options.cache_bytes = 12345;
  EXPECT_EQ(ResolveCacheBytes(options), 12345u);
}

TEST(IntegrationTest, BatchSizeTwoRunsCleanly) {
  ExperimentOptions options = FastOptions();
  options.batch_size = 2;
  const ExperimentResult result = RunExperiment({.system = "fMoE", .options = options});
  EXPECT_GT(result.mean_tpot, 0.0);
  EXPECT_GT(result.hit_rate, 0.0);
}

TEST(IntegrationTest, PrefetchDistanceSweepStaysServable) {
  for (int distance = 1; distance <= 3; ++distance) {
    ExperimentOptions options = FastOptions();
    options.prefetch_distance = distance;
    const ExperimentResult result = RunExperiment({.system = "fMoE", .options = options});
    EXPECT_GT(result.hit_rate, 0.0) << "distance " << distance;
  }
}

}  // namespace
}  // namespace fmoe
