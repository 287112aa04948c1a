// Tests for the trace_diff comparator (src/tools/trace_diff_lib.h): identical traces
// produce no divergence, a single perturbed event is localised as the *first* divergence
// with its track name and virtual timestamp, and malformed input is an error rather than a
// verdict. Exercised both on hand-written JSON and on real exporter output (TraceRecorder →
// WriteChromeTraceJson), so the comparator tracks the exporter's actual schema.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/perfetto_export.h"
#include "src/obs/trace_recorder.h"
#include "src/tools/trace_diff_lib.h"
#include "src/util/rng.h"

namespace fmoe {
namespace {

std::string ExportTrace(const TraceRecorder& recorder, const std::string& process_name) {
  std::ostringstream out;
  WriteChromeTraceJson(recorder, process_name, out);
  return out.str();
}

TraceRecorder MakeRecorder(double prefetch_end_s) {
  TraceRecorder recorder;
  const int engine = recorder.RegisterTrack("engine");
  const int link = recorder.RegisterTrack("gpu0/link");
  recorder.Span(engine, "attention", "compute", 0.0, 0.002);
  recorder.Span(link, "prefetch", "transfer", 0.001, prefetch_end_s,
                {TraceArg::Uint("key", 7)});
  recorder.Instant(engine, "evict", "cache", 0.003, {TraceArg::Uint("key", 3)});
  recorder.Counter(link, "inflight", 0.004, 2.0);
  StallAttribution stall;
  stall.AddStall(StallClass::kNeverPrefetched, 0.0005);
  recorder.set_stall(stall);
  return recorder;
}

TEST(TraceDiffTest, IdenticalTracesHaveNoDivergence) {
  const std::string a = ExportTrace(MakeRecorder(0.0025), "run A");
  const TraceDiffResult result = DiffTraceJson(a, a);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.identical);
  EXPECT_NE(RenderTraceDiff(result, "a.json", "b.json").find("identical"), std::string::npos);
}

TEST(TraceDiffTest, ProcessNameMetadataIsNotCompared) {
  // Same events, different process names (two programs / task indices): still identical —
  // metadata rows are only consumed to resolve track names.
  const std::string a = ExportTrace(MakeRecorder(0.0025), "bench_fig9 [0] fMoE");
  const std::string b = ExportTrace(MakeRecorder(0.0025), "fmoe_sim [2] fMoE");
  const TraceDiffResult result = DiffTraceJson(a, b);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.identical);
}

TEST(TraceDiffTest, PerturbedEventIsReportedAsFirstDivergence)  {
  const std::string a = ExportTrace(MakeRecorder(0.0025), "run");
  const std::string b = ExportTrace(MakeRecorder(0.0030), "run");  // Longer prefetch span.
  const TraceDiffResult result = DiffTraceJson(a, b);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_FALSE(result.identical);
  EXPECT_EQ(result.kind, "event-field");
  EXPECT_EQ(result.event_index, 1u);  // attention is event 0; the prefetch span diverges.
  EXPECT_EQ(result.field, "dur");
  EXPECT_EQ(result.track_a, "gpu0/link");
  EXPECT_EQ(result.name_a, "prefetch");
  EXPECT_DOUBLE_EQ(result.ts_us_a, 1000.0);  // 0.001 s in trace microseconds.
  const std::string rendered = RenderTraceDiff(result, "good.json", "bad.json");
  EXPECT_NE(rendered.find("gpu0/link"), std::string::npos);
  EXPECT_NE(rendered.find("prefetch"), std::string::npos);
  EXPECT_NE(rendered.find("dur"), std::string::npos);
}

TEST(TraceDiffTest, MissingEventIsAnEventCountDivergence) {
  TraceRecorder longer = MakeRecorder(0.0025);
  longer.Instant(1, "extra", "cache", 0.006);
  const std::string a = ExportTrace(MakeRecorder(0.0025), "run");
  const std::string b = ExportTrace(longer, "run");
  const TraceDiffResult result = DiffTraceJson(a, b);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_FALSE(result.identical);
  EXPECT_EQ(result.kind, "event-count");
  EXPECT_EQ(result.event_index, 4u);  // The shorter trace has 4 comparable events.
  EXPECT_EQ(result.name_b, "extra");
}

TEST(TraceDiffTest, StallAttributionDivergenceIsCaughtAfterEvents) {
  TraceRecorder other = MakeRecorder(0.0025);
  StallAttribution stall = other.stall();
  stall.AddStall(StallClass::kEvictedBeforeUse, 0.0001);
  other.set_stall(stall);  // Events unchanged.
  const std::string a = ExportTrace(MakeRecorder(0.0025), "run");
  const std::string b = ExportTrace(other, "run");
  const TraceDiffResult result = DiffTraceJson(a, b);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_FALSE(result.identical);
  EXPECT_EQ(result.kind, "stall-attribution");
}

TEST(TraceDiffTest, UnknownTidFallsBackToNumericTrack) {
  // Hand-written trace without thread_name metadata: comparable, track rendered as "tid N".
  const std::string a =
      R"({"traceEvents":[{"ph":"i","s":"t","pid":1,"tid":9,"ts":5.000,"name":"x","cat":"c","args":{}}]})";
  const std::string b =
      R"({"traceEvents":[{"ph":"i","s":"t","pid":1,"tid":9,"ts":6.000,"name":"x","cat":"c","args":{}}]})";
  const TraceDiffResult result = DiffTraceJson(a, b);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_FALSE(result.identical);
  EXPECT_EQ(result.field, "ts");
  EXPECT_EQ(result.track_a, "tid 9");
}

TEST(TraceDiffTest, MalformedJsonIsAnErrorNotAVerdict) {
  const std::string good = ExportTrace(MakeRecorder(0.0025), "run");
  for (const std::string& bad :
       {std::string(""), std::string("{"), std::string("[1,2]"),
        std::string("{\"traceEvents\":42}")}) {
    const TraceDiffResult result = DiffTraceJson(good, bad);
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.error.empty());
    EXPECT_FALSE(result.identical);
  }
}

TEST(TraceDiffTest, MissingFileIsAnError) {
  const TraceDiffResult result =
      DiffTraceFiles("/nonexistent/a.json", "/nonexistent/b.json");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("cannot read"), std::string::npos);
}

// Seeded byte-mutation fuzz of the JSON reader, modelled on TraceCsvFuzzTest: every mutant of
// a real exported trace must yield either an error or a verdict — never a crash, a hang, or
// an error and a verdict at once — and a verdict must be reproducible and self-consistent.
class TraceDiffJsonFuzzTest : public ::testing::TestWithParam<uint64_t> {};

void ExpectErrorOrVerdict(const TraceDiffResult& result, const std::string& mutant) {
  if (!result.ok) {
    ASSERT_FALSE(result.error.empty()) << mutant;
    return;
  }
  ASSERT_TRUE(result.error.empty()) << mutant;
  if (result.identical) {
    ASSERT_TRUE(result.kind.empty()) << mutant;
  } else {
    ASSERT_TRUE(result.kind == "event-field" || result.kind == "event-count" ||
                result.kind == "stall-attribution")
        << result.kind << "\n" << mutant;
  }
}

TEST_P(TraceDiffJsonFuzzTest, EveryMutantGivesAnErrorOrAVerdict) {
  Rng rng(GetParam());
  const std::string base = ExportTrace(MakeRecorder(0.0025), "run");
  const std::string alphabet = "{}[]\":,.-+eE0123456789 \n\\tfnul";
  const std::vector<std::string> tokens = {
      "\"", "\\", "\\u", "\\u00zz", "\\x", "1e999", "-", "-0", "nan", "null", "true",
      ",", ":", "[]", "{}", "\"ts\":", "\"ph\":\"M\",", std::string(100000, '['),
      std::string(3000, '{')};

  size_t accepted = 0;
  size_t rejected = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    std::string mutant = base;
    const int edits = 1 + static_cast<int>(rng.NextBounded(3));
    for (int e = 0; e < edits && !mutant.empty(); ++e) {
      const size_t at = rng.NextBounded(mutant.size());
      switch (rng.NextBounded(5)) {
        case 0:
          mutant[at] = alphabet[rng.NextBounded(alphabet.size())];
          break;
        case 1:
          mutant[at] = static_cast<char>(rng.NextBounded(256));
          break;
        case 2:
          mutant.erase(at, 1 + rng.NextBounded(4));
          break;
        case 3:
          mutant.insert(at, tokens[rng.NextBounded(tokens.size())]);
          break;
        default:
          mutant.resize(at);
          break;
      }
    }
    const TraceDiffResult forward = DiffTraceJson(base, mutant);
    ExpectErrorOrVerdict(forward, mutant);
    const TraceDiffResult backward = DiffTraceJson(mutant, base);
    ExpectErrorOrVerdict(backward, mutant);
    ASSERT_EQ(forward.ok, backward.ok) << mutant;
    RenderTraceDiff(forward, "base", "mutant");
    if (!forward.ok) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_EQ(forward.identical, backward.identical) << mutant;
    const TraceDiffResult self = DiffTraceJson(mutant, mutant);
    ASSERT_TRUE(self.ok) << self.error;
    ASSERT_TRUE(self.identical) << mutant;
  }
  // Both outcomes must actually occur, or the fuzz is testing nothing.
  EXPECT_GT(accepted, 30u);
  EXPECT_GT(rejected, 30u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceDiffJsonFuzzTest, ::testing::Values(11u, 503u, 2026u));

}  // namespace
}  // namespace fmoe
