// Plan builder and parallel runner: declaration-order indexing, tag bookkeeping, the
// seed-derivation rule, and the determinism contract — RunPlan's result vector is bitwise
// identical no matter how many worker threads execute it (DESIGN.md §5e) — plus the shared
// front end RunObserved.
#include "src/harness/plan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>

#include "src/harness/observe.h"
#include "src/harness/runner.h"
#include "src/obs/trace_recorder.h"

namespace fmoe {
namespace {

ExperimentOptions TinyOptions() {
  ExperimentOptions options;
  options.model = TinyTestConfig();
  options.dataset = LmsysLikeProfile();
  options.dataset.num_clusters = 8;
  options.history_requests = 16;
  options.test_requests = 6;
  options.max_decode_tokens = 8;
  options.store_capacity = 64;
  options.prefetch_distance = 2;
  options.gpu_count = 2;
  return options;
}

TraceProfile TinyTrace() {
  TraceProfile trace;
  trace.mean_arrival_rate = 3.0;
  trace.max_decode_tokens = 8;
  return trace;
}

// A cold-start task over `count` arrivals of TinyTrace().
ExperimentTask TraceTask(const std::string& system, size_t count) {
  return {.system = system,
          .options = TinyOptions(),
          .source = RequestSource::kTrace,
          .trace = TinyTrace(),
          .request_count = count};
}

// A plan exercising every request source and serving mode, plus replicas, with heterogeneous
// per-task cost, so parallel execution actually interleaves completions out of plan order.
ExperimentPlan MixedPlan() {
  ExperimentPlan plan(/*plan_seed=*/7);
  plan.AddOffline("fMoE", TinyOptions(), {"kind=offline"});
  plan.AddOffline("MoE-Infinity", TinyOptions(), {"kind=offline"});
  plan.Add(TraceTask("fMoE", 8));
  ExperimentOptions big = TinyOptions();
  big.test_requests = 12;
  plan.AddOffline("DeepSpeed-Inference", big, {"kind=offline"});
  ExperimentTask scheduled = TraceTask("fMoE", 8);
  scheduled.serving = Serving::kContinuous;
  scheduled.scheduler.max_batch_size = 2;
  plan.Add(scheduled);
  ExperimentTask cluster = TraceTask("fMoE", 8);
  cluster.options.replicas = 2;
  cluster.options.router_policy = RouterPolicy::kSemanticAffinity;
  plan.Add(cluster);
  plan.Add({.system = "ProMoE",
            .options = TinyOptions(),
            .source = RequestSource::kRequests,
            .requests = TraceGenerator(TinyTrace(), TinyOptions().dataset, 3).Generate(6)});
  return plan;
}

TEST(ExperimentPlanTest, AddReturnsDeclarationOrderIndices) {
  ExperimentPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.AddOffline("fMoE", TinyOptions()), 0u);
  EXPECT_EQ(plan.Add(TraceTask("fMoE", 4)), 1u);
  EXPECT_EQ(plan.AddOffline("ProMoE", TinyOptions()), 2u);
  EXPECT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.tasks()[0].source, RequestSource::kSplit);
  EXPECT_EQ(plan.tasks()[1].source, RequestSource::kTrace);
  EXPECT_EQ(plan.tasks()[2].system, "ProMoE");
}

TEST(ExperimentPlanTest, CrossProductIsRowMajorAndTagged) {
  ExperimentPlan plan;
  const std::vector<ModelConfig> models{TinyTestConfig()};
  const std::vector<DatasetProfile> datasets{LmsysLikeProfile(), ShareGptLikeProfile()};
  const std::vector<std::string> systems{"fMoE", "MoE-Infinity"};
  const std::vector<size_t> indices = plan.AddOfflineCross(
      models, datasets, systems,
      [&](const ModelConfig& model, const DatasetProfile& dataset) {
        ExperimentOptions options = TinyOptions();
        options.model = model;
        options.dataset = dataset;
        return options;
      });
  ASSERT_EQ(indices.size(), 4u);
  EXPECT_EQ(indices, (std::vector<size_t>{0, 1, 2, 3}));
  // Row-major: dataset outer, system inner (single model).
  EXPECT_TRUE(plan.tasks()[0].HasTag("dataset=" + datasets[0].name));
  EXPECT_TRUE(plan.tasks()[0].HasTag("system=fMoE"));
  EXPECT_TRUE(plan.tasks()[1].HasTag("dataset=" + datasets[0].name));
  EXPECT_TRUE(plan.tasks()[1].HasTag("system=MoE-Infinity"));
  EXPECT_TRUE(plan.tasks()[2].HasTag("dataset=" + datasets[1].name));
  EXPECT_TRUE(plan.tasks()[3].HasTag("system=MoE-Infinity"));
  EXPECT_EQ(plan.IndicesWithTag("system=fMoE"), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(plan.IndicesWithTag("model=" + models[0].name).size(), 4u);
}

TEST(ExperimentPlanTest, SweepAppliesMutationPerValueInOrder) {
  ExperimentPlan plan;
  const std::vector<int> distances{1, 3, 5};
  const std::vector<size_t> indices = plan.AddOfflineSweep(
      "fMoE", TinyOptions(), distances,
      [](ExperimentOptions& options, int d) { options.prefetch_distance = d; }, "d");
  ASSERT_EQ(indices.size(), 3u);
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(plan.tasks()[indices[i]].options.prefetch_distance, distances[i]);
    EXPECT_TRUE(plan.tasks()[indices[i]].HasTag("d=" + std::to_string(i)));
    EXPECT_TRUE(plan.tasks()[indices[i]].HasTag("system=fMoE"));
  }
}

TEST(ExperimentPlanTest, ExplicitSeedsAreLeftAlone) {
  ExperimentPlan plan(/*plan_seed=*/99);
  ExperimentOptions options = TinyOptions();
  options.seed = 1234;
  plan.AddOffline("fMoE", options);
  EXPECT_EQ(plan.tasks()[0].options.seed, 1234u);
}

TEST(ExperimentPlanTest, SentinelSeedsDeriveFromPlanSeedAndIndexOnly) {
  ExperimentPlan plan(/*plan_seed=*/99);
  for (int i = 0; i < 3; ++i) {
    ExperimentOptions options = TinyOptions();
    options.seed = kSeedFromPlan;
    plan.AddOffline("fMoE", options);
  }
  std::set<uint64_t> seeds;
  for (size_t i = 0; i < plan.size(); ++i) {
    const uint64_t seed = plan.tasks()[i].options.seed;
    EXPECT_NE(seed, kSeedFromPlan);
    EXPECT_EQ(seed, ExperimentPlan::DeriveTaskSeed(99, i));
    seeds.insert(seed);
  }
  // Sibling tasks get decorrelated streams.
  EXPECT_EQ(seeds.size(), 3u);
  // The rule is a pure function of (plan_seed, index): same inputs, same seed, and either
  // input changing changes the result.
  EXPECT_EQ(ExperimentPlan::DeriveTaskSeed(99, 1), ExperimentPlan::DeriveTaskSeed(99, 1));
  EXPECT_NE(ExperimentPlan::DeriveTaskSeed(99, 1), ExperimentPlan::DeriveTaskSeed(99, 2));
  EXPECT_NE(ExperimentPlan::DeriveTaskSeed(99, 1), ExperimentPlan::DeriveTaskSeed(100, 1));
}

void ExpectBitwiseEqual(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.system, b.system);
  // Exact (bitwise) equality on every metric field: determinism means identical doubles, not
  // merely close ones.
  EXPECT_EQ(a.mean_ttft, b.mean_ttft);
  EXPECT_EQ(a.mean_tpot, b.mean_tpot);
  EXPECT_EQ(a.hit_rate, b.hit_rate);
  EXPECT_EQ(a.mean_e2e, b.mean_e2e);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.cache_capacity_gb, b.cache_capacity_gb);
  EXPECT_EQ(a.cache_used_gb, b.cache_used_gb);
  EXPECT_EQ(a.mean_semantic_score, b.mean_semantic_score);
  EXPECT_EQ(a.mean_trajectory_score, b.mean_trajectory_score);
  EXPECT_EQ(a.low_precision_share, b.low_precision_share);
  EXPECT_EQ(a.request_latencies, b.request_latencies);
  EXPECT_EQ(a.scheduled_tokens, b.scheduled_tokens);
  EXPECT_EQ(a.scheduler_stats.mean_batch_occupancy, b.scheduler_stats.mean_batch_occupancy);
  EXPECT_EQ(a.breakdown.TotalIteration(), b.breakdown.TotalIteration());
  EXPECT_EQ(a.deferred.applied, b.deferred.applied);
  EXPECT_EQ(a.deferred.superseded, b.deferred.superseded);
}

TEST(RunnerTest, ResultsComeBackInPlanOrder) {
  const ExperimentPlan plan = MixedPlan();
  const std::vector<ExperimentResult> results = RunPlan(plan);
  ASSERT_EQ(results.size(), plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(results[i].system, plan.tasks()[i].system) << "slot " << i;
  }
}

TEST(RunnerTest, ParallelRunMatchesSerialRunBitwise) {
  const ExperimentPlan plan = MixedPlan();
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions parallel;
  parallel.jobs = 4;
  const std::vector<ExperimentResult> a = RunPlan(plan, serial);
  const std::vector<ExperimentResult> b = RunPlan(plan, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    ExpectBitwiseEqual(a[i], b[i]);
  }
}

TEST(RunnerTest, RunTaskMatchesDirectHarnessCalls) {
  ExperimentTask task;
  task.system = "fMoE";
  task.options = TinyOptions();
  TraceRecorder recorder;
  const ExperimentResult via_runner = RunTask(task, &recorder);
  const ExperimentResult direct = RunExperiment(task);
  ExpectBitwiseEqual(via_runner, direct);
  EXPECT_FALSE(recorder.events().empty());
}

TEST(RunnerTest, ProgressCallbackFiresOncePerTask) {
  const ExperimentPlan plan = MixedPlan();
  RunnerOptions options;
  options.jobs = 2;
  std::atomic<size_t> calls{0};
  std::vector<std::atomic<int>> per_task(plan.size());
  RunPlan(plan, options, [&](size_t index) {
    calls.fetch_add(1);
    per_task[index].fetch_add(1);
  });
  EXPECT_EQ(calls.load(), plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(per_task[i].load(), 1) << "task " << i;
  }
}

// RunObserved checks --trace-task before anything runs.
TEST(RunObservedTest, OutOfRangeTraceTaskFailsBeforeRunning) {
  ExperimentPlan plan(/*plan_seed=*/7);
  plan.AddOffline("fMoE", TinyOptions(), {"system=fMoE"});
  bool rendered = false;
  const int code = RunObserved(
      "test", plan, {.trace_out = ::testing::TempDir() + "/unused_trace.json", .trace_task = 1},
      std::cerr, [&](const std::vector<ExperimentResult>&) {
        rendered = true;
        return 0;
      });
  EXPECT_EQ(code, 1);
  EXPECT_FALSE(rendered);
}

// --oracle reaches every task, and the gap table lists each by plan index and tags after the
// caller rendered.
TEST(RunObservedTest, OracleReachesEveryTaskAndTheGapTable) {
  ExperimentPlan plan(/*plan_seed=*/7);
  plan.AddOffline("fMoE", TinyOptions(), {"system=fMoE"});
  plan.AddOffline("MoE-Infinity", TinyOptions(), {"system=MoE-Infinity"});
  std::ostringstream gaps;
  std::vector<ExperimentResult> seen;
  const int code = RunObserved("test", plan, {.jobs = 2, .oracle = true}, gaps,
                               [&](const std::vector<ExperimentResult>& results) {
                                 EXPECT_TRUE(gaps.str().empty());
                                 seen = results;
                                 return 0;
                               });
  EXPECT_EQ(code, 0);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].system, "fMoE");
  EXPECT_TRUE(seen[0].oracle_enabled);
  EXPECT_TRUE(seen[1].oracle_enabled);
  EXPECT_NE(gaps.str().find("0 system=fMoE"), std::string::npos) << gaps.str();
  EXPECT_NE(gaps.str().find("1 system=MoE-Infinity"), std::string::npos) << gaps.str();
}

// A failed render is the exit code, and nothing is reported after it.
TEST(RunObservedTest, RenderFailureSkipsTheReport) {
  ExperimentPlan plan(/*plan_seed=*/7);
  plan.AddOffline("fMoE", TinyOptions(), {"system=fMoE"});
  std::ostringstream gaps;
  const int code = RunObserved("test", plan, {.oracle = true}, gaps,
                               [](const std::vector<ExperimentResult>&) { return 3; });
  EXPECT_EQ(code, 3);
  EXPECT_TRUE(gaps.str().empty());
}

}  // namespace
}  // namespace fmoe
