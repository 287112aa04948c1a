// Tests for the observability layer (src/obs/): recorder bookkeeping, the stall attribution
// it accumulates, the Chrome trace-event exporter (schema pinned by a checked-in golden), and
// the two end-to-end guarantees DESIGN.md §5f promises — attaching a recorder never changes a
// run's results, and the attributed stall total is bitwise equal to
// LatencyBreakdown::demand_stall.
#include "src/obs/trace_recorder.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/obs/perfetto_export.h"
#include "src/obs/stall_report.h"

namespace fmoe {
namespace {

#ifndef FMOE_GOLDEN_DIR
#error "FMOE_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

TEST(TraceRecorderTest, TracksAreOneBasedInRegistrationOrder) {
  TraceRecorder recorder;
  EXPECT_EQ(recorder.RegisterTrack("engine"), 1);
  EXPECT_EQ(recorder.RegisterTrack("gpu0/link"), 2);
  ASSERT_EQ(recorder.track_names().size(), 2u);
  EXPECT_EQ(recorder.track_names()[0], "engine");
  EXPECT_EQ(recorder.track_names()[1], "gpu0/link");
}

TEST(TraceRecorderTest, SpanSecondsSumsMatchingSpansOnly) {
  TraceRecorder recorder;
  const int track = recorder.RegisterTrack("engine");
  recorder.Span(track, "attention", "compute", 1.0, 1.5);
  recorder.Span(track, "attention", "compute", 2.0, 2.25);
  recorder.Span(track, "expert", "compute", 3.0, 4.0);
  recorder.Instant(track, "attention", "compute", 5.0);  // Instants do not count.
  EXPECT_DOUBLE_EQ(recorder.SpanSeconds("attention"), 0.75);
  EXPECT_DOUBLE_EQ(recorder.SpanSeconds("expert"), 1.0);
  EXPECT_EQ(recorder.CountEvents(TracePhase::kSpan, "attention"), 2u);
  EXPECT_EQ(recorder.CountEvents(TracePhase::kInstant, "attention"), 1u);
}

TEST(TraceRecorderTest, TimeSourceFeedsNow) {
  TraceRecorder recorder;
  EXPECT_DOUBLE_EQ(recorder.now(), 0.0);  // No source installed.
  double clock = 1.25;
  recorder.SetTimeSource([&clock] { return clock; });
  EXPECT_DOUBLE_EQ(recorder.now(), 1.25);
  clock = 2.5;
  EXPECT_DOUBLE_EQ(recorder.now(), 2.5);
}

TEST(StallAttributionTest, AttributeStallAccumulatesPerClassAndTotal) {
  StallAttribution stall;
  stall.AddStall(StallClass::kNeverPrefetched, 0.5);
  stall.AddStall(StallClass::kEvictedBeforeUse, 0.25);
  stall.AddStall(StallClass::kEvictedBeforeUse, 0.25);
  EXPECT_DOUBLE_EQ(stall.seconds[static_cast<size_t>(StallClass::kNeverPrefetched)], 0.5);
  EXPECT_DOUBLE_EQ(stall.seconds[static_cast<size_t>(StallClass::kEvictedBeforeUse)], 0.5);
  EXPECT_EQ(stall.misses[static_cast<size_t>(StallClass::kEvictedBeforeUse)], 2u);
  EXPECT_DOUBLE_EQ(stall.total_seconds, 1.0);
  EXPECT_EQ(stall.total_misses, 3u);
  EXPECT_DOUBLE_EQ(stall.CategorySum(), 1.0);
}

TEST(TraceRecorderTest, ClearEventsKeepsTracks) {
  TraceRecorder recorder;
  const int track = recorder.RegisterTrack("engine");
  recorder.Span(track, "attention", "compute", 0.0, 1.0);
  StallAttribution stall;
  stall.AddStall(StallClass::kNeverPrefetched, 1.0);
  recorder.set_stall(stall);

  recorder.ClearEvents();  // The warmup → measured-phase reset.

  EXPECT_TRUE(recorder.events().empty());
  EXPECT_DOUBLE_EQ(recorder.stall().total_seconds, 0.0);
  EXPECT_EQ(recorder.stall().total_misses, 0u);
  ASSERT_EQ(recorder.track_names().size(), 1u);  // Tracks survive.
}

TEST(StallReportTest, RendersEveryClassAndTotal) {
  StallAttribution stall;
  stall.AddStall(StallClass::kNeverPrefetched, 0.75);
  stall.AddStall(StallClass::kPrefetchInFlight, 0.25);
  stall.AddTier(StallTier::kHost, 0.75);
  stall.AddTier(StallTier::kNvme, 0.25);
  const std::string report = RenderStallReport(stall);
  EXPECT_NE(report.find("never-prefetched"), std::string::npos);
  EXPECT_NE(report.find("prefetch-in-flight"), std::string::npos);
  EXPECT_NE(report.find("evicted-before-use"), std::string::npos);
  EXPECT_NE(report.find("served-from-host"), std::string::npos);
  EXPECT_NE(report.find("served-from-nvme"), std::string::npos);
  EXPECT_NE(report.find("total"), std::string::npos);
  EXPECT_NE(report.find("75.0%"), std::string::npos);
}

TEST(StallAttributionTest, TierBucketsPartitionIndependently) {
  StallAttribution stall;
  stall.AddStall(StallClass::kNeverPrefetched, 0.5);
  stall.AddTier(StallTier::kNvme, 0.5);
  stall.AddStall(StallClass::kPrefetchInFlight, 0.25);
  stall.AddTier(StallTier::kHost, 0.25);
  EXPECT_DOUBLE_EQ(stall.tier_seconds[static_cast<size_t>(StallTier::kNvme)], 0.5);
  EXPECT_DOUBLE_EQ(stall.tier_seconds[static_cast<size_t>(StallTier::kHost)], 0.25);
  EXPECT_EQ(stall.tier_misses[static_cast<size_t>(StallTier::kNvme)], 1u);
  EXPECT_EQ(stall.tier_misses[static_cast<size_t>(StallTier::kHost)], 1u);
  // Both partitions cover the same misses: their sums agree with the serve-order total.
  EXPECT_DOUBLE_EQ(stall.TierSum(), stall.CategorySum());
  EXPECT_DOUBLE_EQ(stall.TierSum(), stall.total_seconds);
}

// --- Exporter schema golden. -----------------------------------------------------------

// A hand-built recorder exercising every event phase, argument type, and the stall summary,
// with literal timestamps so the golden is stable by construction. Pinning the exact bytes
// guards the Chrome trace-event schema (phase letters, ts/dur microsecond mapping, metadata
// records, stallAttribution layout) that Perfetto/chrome://tracing loading depends on.
TEST(PerfettoExportTest, SchemaMatchesGolden) {
  TraceRecorder recorder;
  const int engine = recorder.RegisterTrack("engine");
  const int link = recorder.RegisterTrack("gpu0/link");
  // Tier pseudo-threads register strictly after every legacy track (the engine appends them
  // last), so legacy track ids — and this golden's tid assignments — never shift.
  const int host = recorder.RegisterTrack("host_pool");
  const int nvme = recorder.RegisterTrack("nvme/link");
  recorder.Span(engine, "attention", "compute", 0.001, 0.0015,
                {TraceArg::Int("layer", 0), TraceArg::Int("tokens", 32)});
  recorder.Span(link, "prefetch", "transfer", 0.0012, 0.0030,
                {TraceArg::Uint("bytes", 176160768), TraceArg::Str("tag", "l1e3")});
  recorder.Instant(engine, "hit", "miss", 0.002, {TraceArg::Str("cause", "in-flight")});
  recorder.Counter(link, "gpu0.used_bytes", 0.003, 352321536.0);
  // Out-of-order emission: the exporter must stable-sort by start time.
  recorder.Span(engine, "expert", "compute", 0.0005, 0.0009,
                {TraceArg::Num("prob", 0.375)});
  recorder.Instant(host, "evicted-to-host", "tier", 0.0025,
                   {TraceArg::Uint("key", 19), TraceArg::Uint("bytes", 176160768)});
  recorder.Span(nvme, "prefetch", "transfer", 0.0026, 0.0040,
                {TraceArg::Uint("bytes", 176160768)});
  StallAttribution stall;
  stall.AddStall(StallClass::kNeverPrefetched, 0.125);
  stall.AddStall(StallClass::kEvictedBeforeUse, 0.0625);
  stall.AddTier(StallTier::kHost, 0.125);
  stall.AddTier(StallTier::kNvme, 0.0625);
  recorder.set_stall(stall);

  std::ostringstream out;
  WriteChromeTraceJson(recorder, "trace_recorder_test", out);
  const std::string actual = out.str();

  const std::string path = std::string(FMOE_GOLDEN_DIR) + "/trace_schema.json";
  if (std::getenv("FMOE_UPDATE_GOLDENS") != nullptr) {
    std::ofstream update(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(update.good()) << "cannot write " << path;
    update << actual;
    update.close();
    FAIL() << "updated golden " << path << " — inspect `git diff tests/golden/`, commit, and "
           << "re-run without FMOE_UPDATE_GOLDENS";
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << "; generate it with FMOE_UPDATE_GOLDENS=1";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "trace JSON schema drifted from " << path << ". If intentional, regenerate with "
      << "FMOE_UPDATE_GOLDENS=1 and commit the diff.";
}

// --- End-to-end guarantees. ------------------------------------------------------------

ExperimentOptions SmallOptions() {
  ExperimentOptions options;
  options.model = TinyTestConfig();
  options.dataset = LmsysLikeProfile();
  options.history_requests = 24;
  options.test_requests = 8;
  options.max_decode_tokens = 12;
  options.store_capacity = 128;
  options.seed = 7;
  return options;
}

// Attaching a recorder must not move a single number: the tracer is a pure observer.
TEST(TraceObserverTest, TracedRunMatchesUntracedBitwise) {
  const ExperimentResult plain = RunExperiment({.system = "fMoE", .options = SmallOptions()});

  TraceRecorder recorder;
  ExperimentOptions traced_options = SmallOptions();
  traced_options.trace = &recorder;
  const ExperimentResult traced = RunExperiment({.system = "fMoE", .options = traced_options});

  EXPECT_FALSE(recorder.events().empty());
  EXPECT_DOUBLE_EQ(traced.mean_ttft, plain.mean_ttft);
  EXPECT_DOUBLE_EQ(traced.mean_tpot, plain.mean_tpot);
  EXPECT_DOUBLE_EQ(traced.mean_e2e, plain.mean_e2e);
  EXPECT_DOUBLE_EQ(traced.hit_rate, plain.hit_rate);
  EXPECT_EQ(traced.iterations, plain.iterations);
  EXPECT_DOUBLE_EQ(traced.breakdown.attention_compute, plain.breakdown.attention_compute);
  EXPECT_DOUBLE_EQ(traced.breakdown.expert_compute, plain.breakdown.expert_compute);
  EXPECT_DOUBLE_EQ(traced.breakdown.demand_stall, plain.breakdown.demand_stall);
  EXPECT_DOUBLE_EQ(traced.breakdown.layer_overhead, plain.breakdown.layer_overhead);
}

// The trace carries the traced engine's own attribution, which accumulates the identical
// addition sequence as demand_stall, so the totals are bitwise equal — not merely close — and
// the per-class buckets partition that total.
TEST(TraceObserverTest, StallAttributionEqualsDemandStall) {
  TraceRecorder recorder;
  ExperimentOptions options = SmallOptions();
  options.trace = &recorder;
  const ExperimentResult result = RunExperiment({.system = "fMoE", .options = options});

  const StallAttribution& stall = recorder.stall();
  EXPECT_GT(stall.total_misses, 0u);
  EXPECT_DOUBLE_EQ(stall.total_seconds, result.breakdown.demand_stall);
  // Grouping by class reassociates the additions, so the category sum is only near-equal.
  EXPECT_NEAR(stall.CategorySum(), stall.total_seconds, 1e-9);
}

// Blocking speculative loads charge sync_overhead, not demand_stall — they must never leak
// into the attribution (the two totals would drift apart if they did).
TEST(TraceObserverTest, BlockingLoadsDoNotInflateAttribution) {
  TraceRecorder recorder;
  ExperimentOptions options = SmallOptions();
  options.trace = &recorder;
  const ExperimentResult result = RunExperiment(
      {.system = "Mixtral-Offloading", .options = options});

  EXPECT_GT(recorder.CountEvents(TracePhase::kSpan, "blocking-load"), 0u);
  EXPECT_DOUBLE_EQ(recorder.stall().total_seconds, result.breakdown.demand_stall);
}

}  // namespace
}  // namespace fmoe
