// Golden-metrics regression test: runs the paper's five systems on a small Mixtral
// configuration at a fixed seed and pins the complete report JSON — every latency, hit rate,
// breakdown component, and deferred-pipeline counter — against checked-in goldens. Any change
// to engine timing, policy decisions, or report formatting shows up as a byte-level diff.
//
// Updating goldens after an *intentional* behaviour change:
//
//   FMOE_UPDATE_GOLDENS=1 ./build/tests/golden_metrics_test
//
// then inspect `git diff tests/golden/` and commit the new files with the change that
// explains them. The test fails (rather than silently passing) on the update run.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/harness/report.h"
#include "src/harness/systems.h"
#include "src/workload/burst.h"

namespace fmoe {
namespace {

#ifndef FMOE_GOLDEN_DIR
#error "FMOE_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

std::string GoldenPath(const std::string& name) {
  return std::string(FMOE_GOLDEN_DIR) + "/" + name;
}

// Small but non-trivial: full Mixtral layer/expert geometry, enough requests for prefill +
// decode + cache churn, small store so matching runs against real contents. Runtime ~1 s.
ExperimentOptions GoldenOptions() {
  ExperimentOptions options;
  options.model = MixtralConfig();
  options.dataset = LmsysLikeProfile();
  options.history_requests = 10;
  options.test_requests = 6;
  options.max_decode_tokens = 8;
  options.store_capacity = 64;
  options.prefetch_distance = 3;
  options.cache_fraction = 0.22;
  options.seed = 42;
  return options;
}

// A cold-start task over the first options.test_requests arrivals of the default Azure-like
// trace, served FIFO on one engine unless the caller changes it.
ExperimentTask GoldenTraceTask(const std::string& system, const ExperimentOptions& options) {
  return {.system = system,
          .options = options,
          .source = RequestSource::kTrace,
          .request_count = options.test_requests};
}

std::string RenderReport(const std::vector<ExperimentResult>& results) {
  std::ostringstream out;
  WriteResultsJson(results, /*include_latencies=*/true, out);
  return out.str();
}

void CompareOrUpdate(const std::string& golden_name, const std::string& actual) {
  const std::string path = GoldenPath(golden_name);
  if (std::getenv("FMOE_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    out.close();
    FAIL() << "updated golden " << path << " — inspect `git diff tests/golden/`, commit, and "
           << "re-run without FMOE_UPDATE_GOLDENS";
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << "; generate it with FMOE_UPDATE_GOLDENS=1";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "report JSON drifted from " << path << ". If the change is intentional, regenerate "
      << "with FMOE_UPDATE_GOLDENS=1 and commit the diff.";
}

TEST(GoldenMetricsTest, FiveSystemsOfflineMixtralSmall) {
  std::vector<ExperimentResult> results;
  for (const std::string& system : PaperSystemNames()) {
    results.push_back(RunExperiment({.system = system, .options = GoldenOptions()}));
  }
  CompareOrUpdate("offline_mixtral_small.json", RenderReport(results));
}

// Same workload with the background matcher at modeled speed: pins the asynchronous
// pipeline's timing (deferred counters, queue waits, decision latencies) — the half of the
// system the scale-0 golden cannot see.
TEST(GoldenMetricsTest, FmoeAsyncPipelineMixtralSmall) {
  ExperimentOptions options = GoldenOptions();
  options.matcher_latency_scale = 1.0;
  std::vector<ExperimentResult> results;
  results.push_back(RunExperiment({.system = "fMoE", .options = options}));
  results.push_back(RunExperiment({.system = "ProMoE", .options = options}));
  CompareOrUpdate("offline_mixtral_async_scale1.json", RenderReport(results));
}

// Without NVMe backing the tier knobs must be inert (DESIGN.md §5h): the store serves every
// fill from the infinite host pool, so a host pool budget, a slow NVMe link, the direct
// NVMe→GPU path, another host eviction policy and tier-aware staging candidates all leave the
// five-system report byte-identical to the committed golden, with no tier block.
TEST(GoldenMetricsTest, DisabledTierConfigIsByteIdenticalToLegacy) {
  std::vector<ExperimentResult> results;
  for (const std::string& system : PaperSystemNames()) {
    ExperimentOptions options = GoldenOptions();
    options.tier.nvme_backing = false;
    options.tier.host_capacity_bytes = options.model.total_expert_bytes() / 3;
    options.tier.nvme_link = LinkConfig{1.0e9, 500e-6};
    options.tier.allow_direct_nvme_gpu = true;
    options.tier.host_policy = "fMoE-PriorityLFU";
    options.host_stage_candidates = 2;
    results.push_back(RunExperiment({.system = system, .options = options}));
    EXPECT_FALSE(results.back().tier_enabled);
  }
  CompareOrUpdate("offline_mixtral_small.json", RenderReport(results));
}

// Golden-pins the three-tier hierarchy itself: fMoE with NVMe backing and a host staging
// pool on the same workload as the two-tier goldens. Any drift in staging, promotion,
// demotion, or the tier report block shows up as a byte-level diff here without touching the
// legacy goldens above.
TEST(GoldenMetricsTest, FmoeThreeTierMixtralSmall) {
  ExperimentOptions options = GoldenOptions();
  options.tier.nvme_backing = true;
  options.tier.host_capacity_bytes =
      static_cast<uint64_t>(0.3 * static_cast<double>(options.model.total_expert_bytes()));
  options.host_stage_candidates = 2;
  std::vector<ExperimentResult> results;
  results.push_back(RunExperiment({.system = "fMoE", .options = options}));
  ASSERT_TRUE(results.back().tier_enabled);
  EXPECT_GT(results.back().tier.stages_issued, 0u);
  CompareOrUpdate("offline_mixtral_three_tier.json", RenderReport(results));
}

// The sharded-store / cluster degenerate configuration (DESIGN.md §5i): map_shards == 1 and
// replicas == 1 — with the router and memory-mode knobs set to their *non*-default values,
// which must all be inert at that scale — has to replay the legacy single-store engine
// byte-identically. Pinned against the same committed golden as FiveSystemsOfflineMixtralSmall,
// so any single-shard divergence shows up as a byte-level diff from the file on disk, not
// merely from a sibling in-process run.
TEST(GoldenMetricsTest, SingleShardSingleReplicaMatchesCommittedGolden) {
  ExperimentOptions options = GoldenOptions();
  options.map_shards = 1;
  options.replicas = 1;
  options.router_policy = RouterPolicy::kSemanticAffinity;  // Inert at R == 1.
  options.cluster_memory = ClusterMemoryMode::kPartition;   // Inert at R == 1.
  std::vector<ExperimentResult> results;
  for (const std::string& system : PaperSystemNames()) {
    results.push_back(RunExperiment({.system = system, .options = options}));
    EXPECT_FALSE(results.back().cluster_enabled);
  }
  CompareOrUpdate("offline_mixtral_small.json", RenderReport(results));
}

// Golden-pins the online protocol (§6.3): fMoE and the on-demand baseline serve an Azure-like
// trace cold, one request at a time in arrival order, on one engine.
TEST(GoldenMetricsTest, OnlineFifoMixtralSmall) {
  std::vector<ExperimentResult> results;
  for (const std::string& system : {std::string("fMoE"), std::string("DeepSpeed-Inference")}) {
    results.push_back(RunExperiment(GoldenTraceTask(system, GoldenOptions())));
  }
  CompareOrUpdate("online_mixtral_small.json", RenderReport(results));
}

// One replica is the single-engine online protocol whatever the cluster knobs say: the router
// and memory mode set to non-default values are inert at R == 1, the report omits the cluster
// block, and the summary benches read is still filled.
TEST(GoldenMetricsTest, SingleReplicaClusterKnobsMatchOnlineGolden) {
  ExperimentOptions options = GoldenOptions();
  options.replicas = 1;
  options.router_policy = RouterPolicy::kSemanticAffinity;
  options.cluster_memory = ClusterMemoryMode::kPartition;
  std::vector<ExperimentResult> results;
  for (const std::string& system : {std::string("fMoE"), std::string("DeepSpeed-Inference")}) {
    results.push_back(RunExperiment(GoldenTraceTask(system, options)));
    const ExperimentResult& result = results.back();
    EXPECT_FALSE(result.cluster_enabled);
    EXPECT_EQ(1, result.cluster.replicas);
    EXPECT_GT(result.cluster.makespan, 0.0);
    EXPECT_GT(result.cluster.aggregate_throughput_rps, 0.0);
  }
  CompareOrUpdate("online_mixtral_small.json", RenderReport(results));
}

// Golden-pins a three-replica cluster: semantic-affinity routing with a gradient controller
// per replica shedding against a 12 s SLO, so the pooled merge, the uneven per-replica split
// and the summed admission ledger all show up in the report.
TEST(GoldenMetricsTest, ClusterAffinityGradientMixtralSmall) {
  ExperimentOptions options = GoldenOptions();
  options.test_requests = 12;
  options.replicas = 3;
  options.router_policy = RouterPolicy::kSemanticAffinity;
  options.admission.policy = AdmissionPolicyKind::kGradient;
  options.admission.slo_sec = 12.0;
  ExperimentTask task = GoldenTraceTask("fMoE", options);
  task.trace.mean_arrival_rate = 0.5;
  task.trace.max_decode_tokens = 32;
  const ExperimentResult result = RunExperiment(task);
  ASSERT_TRUE(result.cluster_enabled);
  EXPECT_GT(result.admission.rejected, 0u);
  CompareOrUpdate("cluster_mixtral_small.json", RenderReport({result}));
}

// Golden-pins a given request list (a square-wave burst trace) served cold in arrival order.
TEST(GoldenMetricsTest, GivenRequestsReplayMixtralSmall) {
  BurstTraceProfile burst;
  burst.base_rate = 0.2;
  burst.burst_rate = 4.0;
  burst.period_sec = 20.0;
  DatasetProfile prompts = GoldenOptions().dataset;
  prompts.max_decode_tokens = GoldenOptions().max_decode_tokens;
  std::vector<ExperimentResult> results;
  for (const std::string& system : {std::string("fMoE"), std::string("MoE-Infinity")}) {
    results.push_back(RunExperiment({.system = system,
                                     .options = GoldenOptions(),
                                     .source = RequestSource::kRequests,
                                     .requests = MakeBurstTrace(burst, prompts, 8, /*seed=*/7)}));
  }
  CompareOrUpdate("replay_mixtral_small.json", RenderReport(results));
}

// Golden-pins the continuous-batching scheduled path under the default open-loop admission
// policy (DESIGN.md §5j): fMoE and the on-demand baseline replay an Azure-like trace through
// the ContinuousBatchScheduler at a fixed seed. Any drift in batching, queue discipline, or
// the open-loop controller's pass-through shows up as a byte-level diff here.
TEST(GoldenMetricsTest, ScheduledOpenLoopMixtralSmall) {
  std::vector<ExperimentResult> results;
  for (const std::string& system : {std::string("fMoE"), std::string("DeepSpeed-Inference")}) {
    ExperimentTask task = GoldenTraceTask(system, GoldenOptions());
    task.serving = Serving::kContinuous;
    results.push_back(RunExperiment(task));
    EXPECT_FALSE(results.back().admission_enabled);
  }
  CompareOrUpdate("scheduled_mixtral_small.json", RenderReport(results));
}

// The open-loop policy must ignore every controller knob: a scheduled run with all gradient
// gains/thresholds/SLO set to aggressive non-default values — but the policy left at open
// loop — replays the committed scheduled golden byte-identically (the closed-loop analogue of
// DisabledTierConfigIsByteIdenticalToLegacy, pinned against the file on disk).
TEST(GoldenMetricsTest, OpenLoopKnobsMatchCommittedScheduledGolden) {
  ExperimentOptions options = GoldenOptions();
  options.admission.slo_sec = 0.001;  // Would shed nearly everything if honoured.
  options.admission.shed_fraction = 0.01;
  options.admission.window_sec = 0.01;
  options.admission.update_period_sec = 0.0;
  options.admission.gain = 0.9;
  options.admission.thrash_threshold = 0.0;
  options.admission.inflight_threshold = 0.0;
  std::vector<ExperimentResult> results;
  for (const std::string& system : {std::string("fMoE"), std::string("DeepSpeed-Inference")}) {
    ExperimentTask task = GoldenTraceTask(system, options);
    task.serving = Serving::kContinuous;
    results.push_back(RunExperiment(task));
    EXPECT_FALSE(results.back().admission_enabled);
  }
  CompareOrUpdate("scheduled_mixtral_small.json", RenderReport(results));
}

// The clairvoyant oracle is a pure observer (DESIGN.md §5k). Two contracts, both pinned
// against the same committed golden: with the knob left at its default (off, spelled out
// here) the report carries no oracle block and replays the file byte-identically; with it
// on, masking the oracle block alone must recover the very same bytes — recording the
// gate-decision tape changed no timing, policy decision, or metric.
TEST(GoldenMetricsTest, OracleDisabledIsByteIdentical) {
  std::vector<ExperimentResult> results;
  for (const std::string& system : PaperSystemNames()) {
    ExperimentOptions options = GoldenOptions();
    options.oracle = false;
    results.push_back(RunExperiment({.system = system, .options = options}));
    EXPECT_FALSE(results.back().oracle_enabled);
  }
  CompareOrUpdate("offline_mixtral_small.json", RenderReport(results));
}

TEST(GoldenMetricsTest, OracleEnabledOnlyAppendsTheOracleBlock) {
  std::vector<ExperimentResult> results;
  for (const std::string& system : PaperSystemNames()) {
    ExperimentOptions options = GoldenOptions();
    options.oracle = true;
    results.push_back(RunExperiment({.system = system, .options = options}));
    ASSERT_TRUE(results.back().oracle_enabled);
    EXPECT_GT(results.back().oracle.accesses, 0u);
    results.back().oracle_enabled = false;  // Mask the block; the rest must match the file.
    results.back().oracle = OracleReport{};
  }
  CompareOrUpdate("offline_mixtral_small.json", RenderReport(results));
}

// Quantized map stores are tolerance-checked, never byte-pinned (DESIGN.md §5g): the fp32
// golden above stays the byte-exact contract, and the fp16/int8 runs of the same workload
// must land within documented bounds of it — matching accuracy may shift argmax decisions on
// near-ties, so the bound is on the end-to-end metrics quantization can actually move. The
// store itself must report the 2×/4× Fig. 16 footprint shrink the quantization buys.
TEST(GoldenMetricsTest, QuantizedStoresTrackFp32WithinTolerance) {
  ExperimentOptions options = GoldenOptions();
  const ExperimentResult fp32 = RunExperiment({.system = "fMoE", .options = options});
  ASSERT_GT(fp32.hit_rate, 0.0);
  for (const MapPrecision precision : {MapPrecision::kFp16, MapPrecision::kInt8}) {
    SCOPED_TRACE(MapPrecisionName(precision));
    options.map_precision = precision;
    const ExperimentResult quantized = RunExperiment({.system = "fMoE", .options = options});
    // Same workload shape regardless of precision.
    EXPECT_EQ(quantized.iterations, fp32.iterations);
    // End-to-end hit-rate delta bound: two percentage points.
    EXPECT_NEAR(quantized.hit_rate, fp32.hit_rate, 0.02);
    // Latency metrics follow the hit rate; 5% relative epsilon.
    EXPECT_NEAR(quantized.mean_ttft, fp32.mean_ttft, 0.05 * fp32.mean_ttft);
    EXPECT_NEAR(quantized.mean_tpot, fp32.mean_tpot, 0.05 * fp32.mean_tpot);
    // Match scores are cosines of slightly perturbed vectors.
    EXPECT_NEAR(quantized.mean_trajectory_score, fp32.mean_trajectory_score, 0.02);
    EXPECT_NEAR(quantized.mean_semantic_score, fp32.mean_semantic_score, 1e-9)
        << "embeddings are not quantized; semantic scores must not move";
  }
}

}  // namespace
}  // namespace fmoe
