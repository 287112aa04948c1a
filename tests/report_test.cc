#include "src/harness/report.h"

#include <sstream>

#include <gtest/gtest.h>

namespace fmoe {
namespace {

ExperimentResult SampleResult() {
  ExperimentResult result;
  result.system = "fMoE";
  result.mean_ttft = 0.5;
  result.mean_tpot = 0.25;
  result.hit_rate = 0.85;
  result.mean_e2e = 10.0;
  result.iterations = 123;
  result.cache_capacity_gb = 18.5;
  result.cache_used_gb = 18.0;
  result.breakdown.attention_compute = 1.0;
  result.breakdown.demand_stall = 2.5;
  result.breakdown.sync_overhead[0] = 0.125;
  result.breakdown.async_work[1] = 0.0625;
  result.request_latencies = {1.0, 2.0, 3.0};
  return result;
}

TEST(JsonEscapeTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape(std::string("ctl\x01")), "ctl\\u0001");
}

TEST(ReportJsonTest, ContainsAllTopLevelKeys) {
  std::ostringstream out;
  WriteResultJson(SampleResult(), /*include_latencies=*/false, out);
  const std::string json = out.str();
  for (const char* key :
       {"\"system\":\"fMoE\"", "\"mean_ttft_s\":0.5", "\"mean_tpot_s\":0.25",
        "\"hit_rate\":0.85", "\"iterations\":123", "\"breakdown\"", "\"demand_stall_s\":2.5",
        "\"context-collection\":0.125", "\"map-matching\":0.0625"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing from " << json;
  }
  EXPECT_EQ(json.find("request_latencies_s"), std::string::npos);
}

TEST(ReportJsonTest, LatenciesIncludedOnRequest) {
  std::ostringstream out;
  WriteResultJson(SampleResult(), /*include_latencies=*/true, out);
  EXPECT_NE(out.str().find("\"request_latencies_s\":[1,2,3]"), std::string::npos);
}

TEST(ReportJsonTest, ArrayFormsValidStructure) {
  std::ostringstream out;
  WriteResultsJson({SampleResult(), SampleResult()}, false, out);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("},{"), std::string::npos);
  // Balanced braces/brackets (a cheap well-formedness check).
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
    }
    if (in_string) {
      continue;
    }
    if (c == '{' || c == '[') {
      ++depth;
    }
    if (c == '}' || c == ']') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST(PlanReportJsonTest, EmitsOneEntryPerTaskInPlanOrder) {
  ExperimentPlan plan(/*plan_seed=*/11);
  ExperimentOptions options;
  options.model = TinyTestConfig();
  options.seed = 5;
  plan.AddOffline("fMoE", options, {"model=tiny", "system=fMoE"});
  plan.Add({.system = "MoE-Infinity",
            .options = options,
            .source = RequestSource::kTrace,
            .request_count = 4,
            .tags = {"system=MoE-Infinity"}});

  std::ostringstream out;
  WritePlanReportJson(plan, {SampleResult(), SampleResult()}, /*include_latencies=*/false, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"plan_seed\":11"), std::string::npos);
  EXPECT_NE(json.find("\"index\":0,\"system\":\"fMoE\",\"mode\":\"offline\",\"seed\":5"),
            std::string::npos);
  EXPECT_NE(json.find("\"index\":1,\"system\":\"MoE-Infinity\",\"mode\":\"online\""),
            std::string::npos);
  EXPECT_NE(json.find("\"tags\":[\"model=tiny\",\"system=fMoE\"]"), std::string::npos);
  // Task order in the report is plan order: fMoE's entry precedes MoE-Infinity's.
  EXPECT_LT(json.find("\"system\":\"fMoE\""), json.find("\"system\":\"MoE-Infinity\""));
}

TEST(PlanReportJsonTest, MissingResultsSerializeAsNull) {
  ExperimentPlan plan;
  ExperimentOptions options;
  options.model = TinyTestConfig();
  plan.AddOffline("fMoE", options);
  std::ostringstream out;
  WritePlanReportJson(plan, {}, /*include_latencies=*/false, out);
  EXPECT_NE(out.str().find("\"result\":null"), std::string::npos);
}

TEST(ReportCsvTest, HeaderAndRows) {
  std::ostringstream out;
  WriteResultsCsv({SampleResult()}, out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("system,ttft_s,tpot_s,hit_rate"), std::string::npos);
  EXPECT_NE(csv.find("fMoE,0.5,0.25,0.85,10,123,18.5,18,2.5,0.125"), std::string::npos);
}

TEST(ReportCsvTest, OneRowPerResult) {
  std::ostringstream out;
  WriteResultsCsv({SampleResult(), SampleResult(), SampleResult()}, out);
  const std::string csv = out.str();
  size_t lines = 0;
  for (char c : csv) {
    lines += c == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, 4u);  // Header + 3 rows.
}

}  // namespace
}  // namespace fmoe
