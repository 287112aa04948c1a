// Harness-level behaviour: option plumbing, protocol differences, and determinism of the
// experiment runner (everything the figure benches rely on but the integration tests do not
// pin explicitly).
#include "src/harness/experiment.h"

#include <gtest/gtest.h>

namespace fmoe {
namespace {

ExperimentOptions TinyOptions() {
  ExperimentOptions options;
  options.model = TinyTestConfig();
  options.dataset = LmsysLikeProfile();
  options.dataset.num_clusters = 8;
  options.history_requests = 24;
  options.test_requests = 8;
  options.max_decode_tokens = 10;
  options.store_capacity = 64;
  options.prefetch_distance = 2;
  options.gpu_count = 2;
  return options;
}

TEST(HarnessTest, OnlineRunsAreDeterministic) {
  const ExperimentOptions options = TinyOptions();
  TraceProfile trace;
  trace.mean_arrival_rate = 3.0;
  const ExperimentResult a = RunExperiment(
      {.system = "fMoE", .options = options, .source = RequestSource::kTrace, .trace = trace,
       .request_count = 12});
  const ExperimentResult b = RunExperiment(
      {.system = "fMoE", .options = options, .source = RequestSource::kTrace, .trace = trace,
       .request_count = 12});
  EXPECT_DOUBLE_EQ(a.mean_e2e, b.mean_e2e);
  EXPECT_EQ(a.request_latencies, b.request_latencies);
}

TEST(HarnessTest, OnlineUsesTraceLengthsNotDatasetCaps) {
  // The trace overrides request lengths (§6.3: requests generate exactly the trace's tokens),
  // so iterations reflect trace.max_decode_tokens rather than options.max_decode_tokens.
  ExperimentOptions options = TinyOptions();
  options.max_decode_tokens = 4;
  TraceProfile trace;
  trace.mean_arrival_rate = 5.0;
  trace.min_decode_tokens = 16;
  trace.max_decode_tokens = 16;
  const ExperimentResult result = RunExperiment(
      {.system = "fMoE", .options = options, .source = RequestSource::kTrace, .trace = trace,
       .request_count = 4});
  // 4 requests x (1 prefill + 16 decode) iterations.
  EXPECT_EQ(result.iterations, 4u * 17u);
}

TEST(HarnessTest, CacheBytesOverrideReachesEngine) {
  ExperimentOptions options = TinyOptions();
  options.cache_bytes = TinyTestConfig().expert_bytes * 5;
  const ExperimentResult result = RunExperiment({.system = "fMoE", .options = options});
  EXPECT_NEAR(result.cache_capacity_gb,
              static_cast<double>(options.cache_bytes) / (1 << 30), 1e-12);
}

TEST(HarnessTest, GpuCountChangesTimingButNotRouting) {
  ExperimentOptions two = TinyOptions();
  ExperimentOptions six = TinyOptions();
  six.gpu_count = 6;
  const ExperimentResult slow = RunExperiment({.system = "DeepSpeed-Inference", .options = two});
  const ExperimentResult fast = RunExperiment({.system = "DeepSpeed-Inference", .options = six});
  // More links = faster (tiny model has 6 experts/layer: 6 links fully parallelise a layer).
  EXPECT_LT(fast.mean_tpot, slow.mean_tpot);
  // Routing (and thus activation counts) is placement-independent.
  EXPECT_EQ(slow.iterations, fast.iterations);
}

TEST(HarnessTest, PreloadAllIgnoresCacheBudget) {
  ExperimentOptions options = TinyOptions();
  options.cache_fraction = 0.1;  // Would be far too small for all experts...
  const ExperimentResult result = RunExperiment({.system = "No-offload", .options = options});
  // ...but No-offload sizes the cache to fit everything regardless.
  EXPECT_DOUBLE_EQ(result.hit_rate, 1.0);
  EXPECT_NEAR(result.cache_used_gb,
              static_cast<double>(TinyTestConfig().total_expert_bytes()) / (1 << 30), 1e-9);
}

TEST(HarnessTest, IterationRecordsOnlyKeptWhenRequested) {
  ExperimentOptions options = TinyOptions();
  const ExperimentResult without = RunExperiment({.system = "fMoE", .options = options});
  EXPECT_TRUE(without.iteration_records.empty());
  options.keep_iteration_records = true;
  const ExperimentResult with = RunExperiment({.system = "fMoE", .options = options});
  EXPECT_EQ(with.iteration_records.size(), with.iterations);
}

TEST(HarnessTest, ScoreLogOnlyForFmoeFamily) {
  ExperimentOptions options = TinyOptions();
  options.enable_score_log = true;
  const ExperimentResult fmoe = RunExperiment({.system = "fMoE", .options = options});
  EXPECT_FALSE(fmoe.score_log.empty());
  const ExperimentResult eam = RunExperiment({.system = "MoE-Infinity", .options = options});
  EXPECT_TRUE(eam.score_log.empty());
  EXPECT_DOUBLE_EQ(eam.mean_semantic_score, 0.0);
}

TEST(HarnessTest, StoreCapacityOptionBoundsFmoeStore) {
  ExperimentOptions options = TinyOptions();
  options.store_capacity = 16;
  // Indirect check: the run completes and similarity scores are produced from a tiny store.
  const ExperimentResult result = RunExperiment({.system = "fMoE", .options = options});
  EXPECT_GT(result.mean_trajectory_score, 0.0);
}

TEST(HarnessTest, RequestLatencyCountMatchesTestRequests) {
  const ExperimentOptions options = TinyOptions();
  const ExperimentResult result = RunExperiment({.system = "fMoE", .options = options});
  EXPECT_EQ(result.request_latencies.size(), options.test_requests);
}

TEST(HarnessTest, SeedChangesWorkloadButKeepsDeterminism) {
  ExperimentOptions a = TinyOptions();
  ExperimentOptions b = TinyOptions();
  b.seed = 777;
  const ExperimentResult ra = RunExperiment({.system = "fMoE", .options = a});
  const ExperimentResult rb = RunExperiment({.system = "fMoE", .options = b});
  EXPECT_NE(ra.mean_tpot, rb.mean_tpot);  // Different workload.
  const ExperimentResult rb2 = RunExperiment({.system = "fMoE", .options = b});
  EXPECT_DOUBLE_EQ(rb.mean_tpot, rb2.mean_tpot);  // Same seed reproduces.
}

// Admission is read from options.admission whatever serves the requests: the single-engine
// FIFO replay and the scheduler both run the closed-loop policy and report its ledger.
TEST(HarnessTest, AdmissionIsReadFromOptionsInEveryServingMode) {
  ExperimentOptions options = TinyOptions();
  options.admission.policy = AdmissionPolicyKind::kGradient;
  options.admission.slo_sec = 0.05;
  TraceProfile trace;
  trace.mean_arrival_rate = 200.0;  // A stampede, so the 50 ms SLO sheds.
  for (const Serving serving : {Serving::kLockstep, Serving::kContinuous}) {
    const ExperimentResult result = RunExperiment({.system = "fMoE",
                                                   .options = options,
                                                   .source = RequestSource::kTrace,
                                                   .trace = trace,
                                                   .request_count = 16,
                                                   .serving = serving});
    ASSERT_TRUE(result.admission_enabled);
    EXPECT_EQ(result.admission_policy, AdmissionPolicyKind::kGradient);
    EXPECT_EQ(result.admission.arrived, 16u);
    EXPECT_GT(result.admission.rejected, 0u);
    EXPECT_EQ(result.request_latencies.size(), result.admission.admitted);
  }
}

// Combinations no protocol defines fail a check instead of silently dropping a knob.
TEST(HarnessTest, UndefinedProtocolCombinationsFailACheck) {
  const ExperimentTask split{.system = "fMoE", .options = TinyOptions()};
  ExperimentTask task = split;
  task.serving = Serving::kContinuous;
  EXPECT_DEATH(RunExperiment(task), "7:3 split");
  task = split;
  task.options.replicas = 2;
  EXPECT_DEATH(RunExperiment(task), "7:3 split");
  task = split;
  task.options.admission.policy = AdmissionPolicyKind::kGradient;
  EXPECT_DEATH(RunExperiment(task), "7:3 split");

  const ExperimentTask trace{.system = "fMoE",
                             .options = TinyOptions(),
                             .source = RequestSource::kTrace,
                             .request_count = 4};
  task = trace;
  task.serving = Serving::kContinuous;
  task.options.replicas = 2;
  EXPECT_DEATH(RunExperiment(task), "one replica");
  task = trace;
  task.options.replicas = 2;
  task.options.batch_size = 2;
  EXPECT_DEATH(RunExperiment(task), "batch size must be 1");
}

}  // namespace
}  // namespace fmoe
