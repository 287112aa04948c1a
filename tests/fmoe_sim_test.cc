// Command-line contract of fmoe_sim: a loaded CSV trace is served per --mode like a generated
// one (scheduled runs go through the admission-controlled scheduler), --save-store builds its
// engine the way a run does, so the map-shard count reaches the saved store, and the shared
// observation flags (--trace-out, --oracle) change stdout by nothing but the oracle blocks.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/tools/trace_diff_lib.h"

namespace {

#ifndef FMOE_SIM_PATH
#error "FMOE_SIM_PATH must name the fmoe_sim binary (set in tests/CMakeLists.txt)"
#endif

std::string TempPath(const std::string& name) { return ::testing::TempDir() + "/" + name; }

// Runs fmoe_sim with `args` (stderr discarded) and returns its stdout; fails on a non-zero
// exit status.
std::string RunSim(const std::string& args) {
  const std::string command = std::string(FMOE_SIM_PATH) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) {
    return "";
  }
  std::string out;
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out.append(buffer, n);
  }
  EXPECT_EQ(pclose(pipe), 0) << command;
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

// A 12-request Azure-like trace for the tiny model, exported once per test.
std::string ExportTrace(const std::string& name) {
  const std::string path = TempPath(name);
  RunSim("--model tiny --mode online --requests 12 --trace-rate 20 --export-trace " + path);
  return path;
}

constexpr const char* kTiny = "--model tiny --format json --latencies true ";

TEST(FmoeSimTest, ScheduledCsvReplayRunsTheScheduler) {
  const std::string csv = ExportTrace("fmoe_sim_test_scheduled.csv");
  const std::string online = RunSim(std::string(kTiny) + "--mode online --trace-csv " + csv);
  const std::string scheduled =
      RunSim(std::string(kTiny) + "--mode scheduled --max-batch 4 --trace-csv " + csv);
  EXPECT_NE(online, scheduled);
  const std::string gradient =
      RunSim(std::string(kTiny) +
             "--mode scheduled --admission-policy gradient --slo-ms 50 --trace-csv " + csv);
  EXPECT_NE(gradient.find("\"admission\":{\"policy\":\"gradient\""), std::string::npos)
      << gradient;
}

TEST(FmoeSimTest, CsvReplayIsFifoUnderOfflineAndOnline) {
  const std::string csv = ExportTrace("fmoe_sim_test_fifo.csv");
  const std::string offline = RunSim(std::string(kTiny) + "--mode offline --trace-csv " + csv);
  const std::string online = RunSim(std::string(kTiny) + "--mode online --trace-csv " + csv);
  EXPECT_FALSE(online.empty());
  EXPECT_EQ(offline, online);
}

TEST(FmoeSimTest, SaveStoreHonoursMapShards) {
  const std::string one = TempPath("fmoe_sim_test_1shard.store");
  const std::string four = TempPath("fmoe_sim_test_4shard.store");
  RunSim("--model tiny --history 24 --requests 2 --map-shards 1 --save-store " + one);
  RunSim("--model tiny --history 24 --requests 2 --map-shards 4 --save-store " + four);
  const std::string one_bytes = ReadFile(one);
  const std::string four_bytes = ReadFile(four);
  ASSERT_FALSE(one_bytes.empty());
  ASSERT_FALSE(four_bytes.empty());
  EXPECT_NE(one_bytes, four_bytes);
}

constexpr const char* kSmall = "--model tiny --format json --history 10 --requests 4 "
                               "--max-decode 4 ";

// Tracing writes a trace that parses and leaves stdout byte-identical.
TEST(FmoeSimTest, TraceOutLeavesStdoutUnchangedAndWritesAParsableTrace) {
  const std::string trace = TempPath("fmoe_sim_test_trace.json");
  std::remove(trace.c_str());
  const std::string plain = RunSim(std::string(kSmall) + "--system fMoE");
  const std::string traced = RunSim(std::string(kSmall) + "--system fMoE --trace-out " + trace);
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(plain, traced);
  const fmoe::TraceDiffResult self = fmoe::DiffTraceFiles(trace, trace);
  ASSERT_TRUE(self.ok) << self.error;
  EXPECT_TRUE(self.identical);
  EXPECT_NE(ReadFile(trace).find("\"stallAttribution\""), std::string::npos);
}

// --oracle adds one oracle block per system; every other byte equals the plain run.
TEST(FmoeSimTest, OracleAddsOneBlockPerSystemAndNothingElse) {
  const std::string plain = RunSim(std::string(kSmall) + "--system all");
  std::string oracle = RunSim(std::string(kSmall) + "--system all --oracle");
  const std::string block = ",\"oracle\":{";
  size_t blocks = 0;
  for (size_t at = oracle.find(block); at != std::string::npos; at = oracle.find(block, at)) {
    const size_t close = oracle.find('}', at);  // The block holds no nested objects.
    ASSERT_NE(close, std::string::npos);
    oracle.erase(at, close + 1 - at);
    ++blocks;
  }
  EXPECT_EQ(blocks, 5u);  // The paper's five systems.
  EXPECT_EQ(oracle, plain);
}

// Flag names match with '_' and '-' as one character.
TEST(FmoeSimTest, UnderscoreSpellingsAreAccepted) {
  const std::string dashed = TempPath("fmoe_sim_test_dashed.json");
  const std::string underscored = TempPath("fmoe_sim_test_underscored.json");
  const std::string plain =
      RunSim(std::string(kSmall) + "--system fMoE --trace-out " + dashed);
  const std::string spelled =
      RunSim("--model tiny --format json --history 10 --requests 4 --max_decode 4 "
             "--system fMoE --trace_out " + underscored + " --trace_task 0");
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(plain, spelled);
  EXPECT_FALSE(ReadFile(underscored).empty());
  EXPECT_EQ(ReadFile(dashed), ReadFile(underscored));
}

}  // namespace
