#include "src/serving/metrics.h"

#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/obs/trace_recorder.h"

namespace fmoe {
namespace {

RequestMetrics MakeRequestMetrics(double arrival, double start, double first_token,
                                  double completion, int decode_iterations) {
  RequestMetrics metrics;
  metrics.arrival_time = arrival;
  metrics.start_time = start;
  metrics.first_token_time = first_token;
  metrics.completion_time = completion;
  metrics.decode_iterations = decode_iterations;
  return metrics;
}

TEST(RequestMetricsTest, TtftExcludesQueueing) {
  const RequestMetrics m = MakeRequestMetrics(0.0, 2.0, 3.0, 7.0, 4);
  EXPECT_DOUBLE_EQ(m.Ttft(), 1.0);
  EXPECT_DOUBLE_EQ(m.QueueingDelay(), 2.0);
  EXPECT_DOUBLE_EQ(m.EndToEnd(), 7.0);
}

TEST(RequestMetricsTest, TpotIsPerDecodeToken) {
  const RequestMetrics m = MakeRequestMetrics(0.0, 0.0, 1.0, 5.0, 4);
  EXPECT_DOUBLE_EQ(m.Tpot(), 1.0);
}

TEST(RequestMetricsTest, ZeroDecodeTokensHasZeroTpot) {
  const RequestMetrics m = MakeRequestMetrics(0.0, 0.0, 1.0, 1.0, 0);
  EXPECT_DOUBLE_EQ(m.Tpot(), 0.0);
}

TEST(RunMetricsTest, HitRateCombinesCounts) {
  RunMetrics metrics;
  metrics.RecordHit();
  metrics.RecordHit();
  metrics.RecordHit();
  metrics.RecordMiss();
  EXPECT_DOUBLE_EQ(metrics.HitRate(), 0.75);
}

TEST(RunMetricsTest, EmptyHitRateIsZero) {
  RunMetrics metrics;
  EXPECT_DOUBLE_EQ(metrics.HitRate(), 0.0);
}

TEST(RunMetricsTest, MeansAggregateRequests) {
  RunMetrics metrics;
  metrics.RecordRequest(MakeRequestMetrics(0.0, 0.0, 1.0, 3.0, 2));
  metrics.RecordRequest(MakeRequestMetrics(0.0, 0.0, 3.0, 7.0, 2));
  EXPECT_DOUBLE_EQ(metrics.MeanTtft(), 2.0);
  EXPECT_DOUBLE_EQ(metrics.MeanTpot(), 1.5);
  EXPECT_DOUBLE_EQ(metrics.MeanEndToEnd(), 5.0);
  EXPECT_EQ(metrics.EndToEndLatencies().size(), 2u);
}

TEST(RunMetricsTest, MeanTpotSkipsZeroDecodeRequests) {
  RunMetrics metrics;
  metrics.RecordRequest(MakeRequestMetrics(0.0, 0.0, 1.0, 1.0, 0));
  metrics.RecordRequest(MakeRequestMetrics(0.0, 0.0, 1.0, 3.0, 2));
  EXPECT_DOUBLE_EQ(metrics.MeanTpot(), 1.0);
}

TEST(RunMetricsTest, IterationRecordsSplitPrefillAndDecode) {
  RunMetrics metrics;
  metrics.RecordIteration(0.5, /*is_prefill=*/true, 3, 1);
  metrics.RecordIteration(0.1, /*is_prefill=*/false, 4, 0);
  EXPECT_EQ(metrics.iterations(), 2u);
  EXPECT_EQ(metrics.prefill_latency().count(), 1u);
  EXPECT_EQ(metrics.decode_iteration_latency().count(), 1u);
  ASSERT_EQ(metrics.iteration_records().size(), 2u);
  EXPECT_DOUBLE_EQ(metrics.iteration_records()[0].HitRate(), 0.75);
  EXPECT_DOUBLE_EQ(metrics.iteration_records()[1].HitRate(), 1.0);
}

TEST(IterationRecordTest, EmptyRecordHasZeroHitRate) {
  IterationRecord record;
  EXPECT_DOUBLE_EQ(record.HitRate(), 0.0);
}

TEST(LatencyBreakdownTest, TotalsSumComponents) {
  LatencyBreakdown breakdown;
  breakdown.attention_compute = 1.0;
  breakdown.expert_compute = 2.0;
  breakdown.demand_stall = 3.0;
  breakdown.layer_overhead = 0.5;
  breakdown.sync_overhead[0] = 0.25;
  breakdown.sync_overhead[1] = 0.25;
  EXPECT_DOUBLE_EQ(breakdown.TotalSyncOverhead(), 0.5);
  EXPECT_DOUBLE_EQ(breakdown.TotalIteration(), 7.0);
}

TEST(LatencyBreakdownTest, AccumulateAddsEverything) {
  LatencyBreakdown a;
  a.attention_compute = 1.0;
  a.async_work[2] = 0.1;
  LatencyBreakdown b;
  b.attention_compute = 2.0;
  b.demand_stall = 1.0;
  b.async_work[2] = 0.2;
  a.Accumulate(b);
  EXPECT_DOUBLE_EQ(a.attention_compute, 3.0);
  EXPECT_DOUBLE_EQ(a.demand_stall, 1.0);
  EXPECT_NEAR(a.async_work[2], 0.3, 1e-12);
}

// The trace is an alternative ledger of the same virtual time the breakdown accumulates:
// on a real (small, deterministic) run every compute component of LatencyBreakdown must
// equal the summed durations of the correspondingly named trace spans, and demand_stall must
// equal the stall total the trace carries (the engine's signal_stall(), same addition
// sequence — DESIGN.md §5f) bitwise.
TEST(LatencyBreakdownTest, ComponentsMatchSummedTraceSpans) {
  TraceRecorder recorder;
  ExperimentOptions options;
  options.model = TinyTestConfig();
  options.dataset = LmsysLikeProfile();
  options.history_requests = 24;
  options.test_requests = 8;
  options.max_decode_tokens = 12;
  options.seed = 11;
  options.trace = &recorder;
  const ExperimentResult result = RunExperiment({.system = "fMoE", .options = options});

  ASSERT_FALSE(recorder.events().empty());
  // Span sums reassociate the breakdown's additions, hence near- rather than exact equality.
  EXPECT_NEAR(recorder.SpanSeconds("attention"), result.breakdown.attention_compute, 1e-9);
  EXPECT_NEAR(recorder.SpanSeconds("expert"), result.breakdown.expert_compute, 1e-9);
  EXPECT_NEAR(recorder.SpanSeconds("layer-overhead"), result.breakdown.layer_overhead, 1e-9);
  EXPECT_NEAR(recorder.SpanSeconds("demand-stall"), result.breakdown.demand_stall, 1e-9);
  EXPECT_DOUBLE_EQ(recorder.stall().total_seconds, result.breakdown.demand_stall);
}

TEST(OverheadCategoryTest, NamesAreDistinct) {
  EXPECT_STREQ(OverheadCategoryName(OverheadCategory::kContextCollection),
               "context-collection");
  EXPECT_STREQ(OverheadCategoryName(OverheadCategory::kMapMatching), "map-matching");
  EXPECT_STREQ(OverheadCategoryName(OverheadCategory::kPrefetchIssue), "prefetch-issue");
  EXPECT_STREQ(OverheadCategoryName(OverheadCategory::kMapUpdate), "map-update");
}

}  // namespace
}  // namespace fmoe
