// Multi-replica cluster suite (DESIGN.md §5i): router policy parsing, routing behaviour per
// policy, request conservation and result pooling across replicas. The replicas == 1 contract
// is pinned against the online golden (golden_metrics_test).
#include "src/serving/cluster.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/report.h"
#include "src/workload/workload.h"

namespace fmoe {
namespace {

TEST(RouterPolicyTest, NamesRoundTripThroughParse) {
  for (const RouterPolicy policy :
       {RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded,
        RouterPolicy::kSemanticAffinity}) {
    RouterPolicy parsed = RouterPolicy::kRoundRobin;
    ASSERT_TRUE(ParseRouterPolicy(RouterPolicyName(policy), &parsed));
    EXPECT_EQ(policy, parsed);
  }
  RouterPolicy parsed = RouterPolicy::kLeastLoaded;
  EXPECT_FALSE(ParseRouterPolicy("banana", &parsed));
  EXPECT_EQ(RouterPolicy::kLeastLoaded, parsed);  // Untouched on failure.
}

TEST(RouterPolicyTest, MemoryModeNamesRoundTripThroughParse) {
  for (const ClusterMemoryMode mode :
       {ClusterMemoryMode::kReplicate, ClusterMemoryMode::kPartition}) {
    ClusterMemoryMode parsed = ClusterMemoryMode::kReplicate;
    ASSERT_TRUE(ParseClusterMemoryMode(ClusterMemoryModeName(mode), &parsed));
    EXPECT_EQ(mode, parsed);
  }
  ClusterMemoryMode parsed = ClusterMemoryMode::kPartition;
  EXPECT_FALSE(ParseClusterMemoryMode("shared", &parsed));
  EXPECT_EQ(ClusterMemoryMode::kPartition, parsed);
}

Request MakeRequest(uint64_t id) {
  Request request;
  request.id = id;
  request.routing.cluster = static_cast<int>(id % 3);
  request.routing.seed = 100 + id;
  return request;
}

TEST(RequestRouterTest, RoundRobinCyclesInArrivalOrder) {
  ClusterOptions options;
  options.replicas = 3;
  options.router = RouterPolicy::kRoundRobin;
  RequestRouter router(options, 7);
  std::vector<ReplicaLoad> loads(3);
  for (uint64_t i = 0; i < 9; ++i) {
    EXPECT_EQ(static_cast<int>(i % 3), router.Route(MakeRequest(i), {}, loads));
  }
}

TEST(RequestRouterTest, LeastLoadedPicksEarliestClockLowestIndexTies) {
  ClusterOptions options;
  options.replicas = 3;
  options.router = RouterPolicy::kLeastLoaded;
  RequestRouter router(options, 7);
  std::vector<ReplicaLoad> loads(3);
  loads[0].busy_until = 5.0;
  loads[1].busy_until = 2.0;
  loads[2].busy_until = 9.0;
  EXPECT_EQ(1, router.Route(MakeRequest(0), {}, loads));
  loads[1].busy_until = 5.0;  // Now tied with replica 0: lowest index wins.
  EXPECT_EQ(0, router.Route(MakeRequest(1), {}, loads));
}

TEST(RequestRouterTest, SemanticAffinityIsDeterministicAndEmbeddingDriven) {
  ClusterOptions options;
  options.replicas = 4;
  options.router = RouterPolicy::kSemanticAffinity;
  RequestRouter router(options, 7);
  RequestRouter clone(options, 7);
  std::vector<ReplicaLoad> loads(4);
  const std::vector<double> embedding_a = {0.9, -0.2, 0.4};
  const std::vector<double> embedding_b = {-0.7, 0.6, -0.1};
  const int a = router.Route(MakeRequest(0), embedding_a, loads);
  const int b = router.Route(MakeRequest(1), embedding_b, loads);
  EXPECT_EQ(a, clone.Route(MakeRequest(0), embedding_a, loads));
  EXPECT_EQ(b, clone.Route(MakeRequest(1), embedding_b, loads));
  // Same embedding, different request metadata: routing follows the embedding alone.
  EXPECT_EQ(a, router.Route(MakeRequest(55), embedding_a, loads));
}

TEST(RequestRouterTest, SingleReplicaShortCircuitsToZero) {
  ClusterOptions options;
  options.replicas = 1;
  options.router = RouterPolicy::kSemanticAffinity;
  RequestRouter router(options, 7);
  std::vector<ReplicaLoad> loads(1);
  // No embedding supplied: the R == 1 short-circuit must not require one.
  EXPECT_EQ(0, router.Route(MakeRequest(0), {}, loads));
}

ExperimentOptions SmallOptions() {
  ExperimentOptions options;
  options.model = TinyTestConfig();
  options.dataset = LmsysLikeProfile();
  options.test_requests = 16;
  options.max_decode_tokens = 8;
  options.store_capacity = 32;
  return options;
}

TraceProfile FastTrace() {
  TraceProfile trace;
  trace.mean_arrival_rate = 6.0;
  return trace;
}

// fMoE over the first `requests` arrivals of FastTrace().
ExperimentTask TraceTask(const ExperimentOptions& options, size_t requests) {
  return {.system = "fMoE",
          .options = options,
          .source = RequestSource::kTrace,
          .trace = FastTrace(),
          .request_count = requests};
}

TEST(RunClusterTest, RequestsAreConservedAcrossReplicas) {
  for (const RouterPolicy policy :
       {RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded,
        RouterPolicy::kSemanticAffinity}) {
    ExperimentOptions options = SmallOptions();
    options.replicas = 3;
    options.router_policy = policy;
    const ExperimentResult result = RunExperiment(TraceTask(options, 16));
    ASSERT_TRUE(result.cluster_enabled);
    ASSERT_EQ(3u, result.cluster.replica_stats.size());
    size_t total = 0;
    for (const ClusterReplicaStats& stats : result.cluster.replica_stats) {
      total += stats.requests;
      EXPECT_LE(stats.busy_until, result.cluster.makespan);
    }
    EXPECT_EQ(16u, total) << RouterPolicyName(policy);
    EXPECT_EQ(16u, result.request_latencies.size()) << RouterPolicyName(policy);
    for (const double latency : result.request_latencies) {
      EXPECT_GT(latency, 0.0);
    }
  }
}

TEST(RunClusterTest, ClusterRunsAreDeterministic) {
  ExperimentOptions options = SmallOptions();
  options.replicas = 2;
  options.router_policy = RouterPolicy::kSemanticAffinity;
  const ExperimentResult a = RunExperiment(TraceTask(options, 16));
  const ExperimentResult b = RunExperiment(TraceTask(options, 16));
  std::ostringstream ja;
  std::ostringstream jb;
  WriteResultJson(a, /*include_latencies=*/true, ja);
  WriteResultJson(b, /*include_latencies=*/true, jb);
  EXPECT_EQ(ja.str(), jb.str());
}

// Two round-robin replicas over an odd request count serve different numbers of requests and
// iterations. Each replica is an independent engine serving its share in arrival order, which
// is exactly a one-replica run over that share, so the merged result must pool the two replays'
// per-request values and add their counters, tier block included.
TEST(RunClusterTest, MergePoolsPerRequestValuesAcrossUnevenReplicas) {
  ExperimentOptions options = SmallOptions();
  options.replicas = 2;
  options.router_policy = RouterPolicy::kRoundRobin;
  options.tier.nvme_backing = true;
  options.tier.host_capacity_bytes = options.model.total_expert_bytes() / 4;
  options.host_stage_candidates = 2;
  constexpr size_t kRequests = 15;
  const ExperimentResult merged = RunExperiment(TraceTask(options, kRequests));

  DatasetProfile dataset = options.dataset;
  dataset.max_decode_tokens = options.max_decode_tokens;
  const std::vector<Request> requests =
      TraceGenerator(FastTrace(), dataset, options.seed).Generate(kRequests);
  std::vector<Request> shares[2];
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_GT(requests[i].decode_tokens, 0);  // Every request contributes one TPOT value.
    shares[i % 2].push_back(requests[i]);
  }
  ExperimentOptions one = options;
  one.replicas = 1;
  const ExperimentResult a = RunExperiment(
      {.system = "fMoE", .options = one, .source = RequestSource::kRequests,
       .requests = shares[0]});
  const ExperimentResult b = RunExperiment(
      {.system = "fMoE", .options = one, .source = RequestSource::kRequests,
       .requests = shares[1]});
  ASSERT_NE(a.iterations, b.iterations);

  ASSERT_EQ(merged.request_latencies.size(), kRequests);
  for (size_t i = 0; i < kRequests; ++i) {
    const ExperimentResult& replica = i % 2 == 0 ? a : b;
    EXPECT_EQ(merged.request_latencies[i], replica.request_latencies[i / 2]) << "request " << i;
  }
  EXPECT_EQ(merged.iterations, a.iterations + b.iterations);
  ASSERT_EQ(merged.cluster.replica_stats.size(), 2u);
  EXPECT_EQ(merged.cluster.replica_stats[0].requests, shares[0].size());
  EXPECT_EQ(merged.cluster.replica_stats[1].requests, shares[1].size());

  // Per-request pooling: every request weighs the same, whatever its replica's iterations.
  const auto na = static_cast<double>(shares[0].size());
  const auto nb = static_cast<double>(shares[1].size());
  const double pooled_tpot = (a.mean_tpot * na + b.mean_tpot * nb) / (na + nb);
  const double pooled_ttft = (a.mean_ttft * na + b.mean_ttft * nb) / (na + nb);
  EXPECT_NEAR(merged.mean_tpot, pooled_tpot, 1e-12 * pooled_tpot);
  EXPECT_NEAR(merged.mean_ttft, pooled_ttft, 1e-12 * pooled_ttft);
  const auto ia = static_cast<double>(a.iterations);
  const auto ib = static_cast<double>(b.iterations);
  const double iteration_weighted = (a.mean_tpot * ia + b.mean_tpot * ib) / (ia + ib);
  EXPECT_GT(std::abs(merged.mean_tpot - iteration_weighted), 1e-6 * pooled_tpot);

  ASSERT_TRUE(a.tier_enabled);
  ASSERT_TRUE(merged.tier_enabled);
  EXPECT_GT(merged.tier.stages_issued, 0u);
  EXPECT_EQ(merged.tier.stages_issued, a.tier.stages_issued + b.tier.stages_issued);
  EXPECT_EQ(merged.tier.host_hits, a.tier.host_hits + b.tier.host_hits);
  EXPECT_EQ(merged.tier.nvme_hits, a.tier.nvme_hits + b.tier.nvme_hits);
  EXPECT_DOUBLE_EQ(merged.host_capacity_gb, a.host_capacity_gb + b.host_capacity_gb);
}

TEST(RunClusterTest, PartitionModeShrinksPerReplicaCache) {
  ExperimentOptions options = SmallOptions();
  options.replicas = 4;
  options.cluster_memory = ClusterMemoryMode::kPartition;
  const ExperimentResult partitioned = RunExperiment(TraceTask(options, 16));
  options.cluster_memory = ClusterMemoryMode::kReplicate;
  const ExperimentResult replicated = RunExperiment(TraceTask(options, 16));
  // Aggregate cache capacity: replicate = R x budget, partition = ~1 x budget.
  EXPECT_GT(replicated.cache_capacity_gb, partitioned.cache_capacity_gb * 2.0);
}

TEST(RunClusterTest, ReportIncludesClusterBlockOnlyWhenEnabled) {
  ExperimentOptions options = SmallOptions();
  options.replicas = 2;
  const ExperimentResult multi = RunExperiment(TraceTask(options, 16));
  options.replicas = 1;
  const ExperimentResult single = RunExperiment(TraceTask(options, 16));
  std::ostringstream multi_json;
  std::ostringstream single_json;
  WriteResultJson(multi, /*include_latencies=*/false, multi_json);
  WriteResultJson(single, /*include_latencies=*/false, single_json);
  EXPECT_NE(std::string::npos, multi_json.str().find("\"cluster\":"));
  EXPECT_NE(std::string::npos, multi_json.str().find("\"replica_stats\":"));
  EXPECT_EQ(std::string::npos, single_json.str().find("\"cluster\":"));
}

}  // namespace
}  // namespace fmoe
