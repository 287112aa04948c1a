// Command-line contract of fmoe_sim: a loaded CSV trace is served per --mode like a generated
// one (scheduled runs go through the admission-controlled scheduler), and --save-store builds
// its engine the way a run does, so the map-shard count reaches the saved store.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

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

}  // namespace
