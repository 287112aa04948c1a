#include "src/workload/trace_io.h"

#include <sstream>

#include <gtest/gtest.h>

#include "src/serving/trace.h"

namespace fmoe {
namespace {

TEST(TraceIoTest, RoundTripPreservesRows) {
  TraceGenerator generator(TraceProfile{}, LmsysLikeProfile(), 7);
  const std::vector<Request> original = generator.Generate(20);
  std::stringstream stream;
  const TraceIoResult written = WriteTraceCsv(original, stream);
  ASSERT_TRUE(written.ok) << written.error;
  EXPECT_EQ(written.rows, 20u);

  std::vector<Request> loaded;
  const TraceIoResult read = ReadTraceCsv(stream, LmsysLikeProfile(), &loaded);
  ASSERT_TRUE(read.ok) << read.error;
  ASSERT_EQ(loaded.size(), 20u);
  for (size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].id, original[i].id);
    EXPECT_DOUBLE_EQ(loaded[i].arrival_time, original[i].arrival_time);
    EXPECT_EQ(loaded[i].prompt_tokens, original[i].prompt_tokens);
    EXPECT_EQ(loaded[i].decode_tokens, original[i].decode_tokens);
    EXPECT_EQ(loaded[i].routing.cluster, original[i].routing.cluster);
    EXPECT_EQ(loaded[i].routing.seed, original[i].routing.seed);
  }
}

TEST(TraceIoTest, MinimalColumnsGetDefaultRouting) {
  std::stringstream stream(
      "request_id,arrival_time_s,prompt_tokens,decode_tokens\n"
      "0,0.0,100,20\n"
      "1,1.5,50,10\n");
  std::vector<Request> loaded;
  const DatasetProfile profile = LmsysLikeProfile();
  const TraceIoResult read = ReadTraceCsv(stream, profile, &loaded);
  ASSERT_TRUE(read.ok) << read.error;
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_GE(loaded[0].routing.cluster, 0);
  EXPECT_LT(loaded[0].routing.cluster, profile.num_clusters);
  EXPECT_NE(loaded[0].routing.seed, loaded[1].routing.seed);  // Deterministic but distinct.
}

TEST(TraceIoTest, ExtraColumnsIgnoredAndBlankLinesSkipped) {
  std::stringstream stream(
      "request_id,arrival_time_s,prompt_tokens,decode_tokens,comment\n"
      "0,0.0,100,20,hello world\n"
      "\n"
      "1,2.0,60,5,another\n");
  std::vector<Request> loaded;
  const TraceIoResult read = ReadTraceCsv(stream, LmsysLikeProfile(), &loaded);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_EQ(loaded.size(), 2u);
}

TEST(TraceIoTest, MissingRequiredColumnFails) {
  std::stringstream stream("request_id,prompt_tokens,decode_tokens\n0,10,5\n");
  std::vector<Request> loaded{Request{}};
  const TraceIoResult read = ReadTraceCsv(stream, LmsysLikeProfile(), &loaded);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("arrival_time_s"), std::string::npos);
  EXPECT_EQ(loaded.size(), 1u);  // Untouched on failure.
}

TEST(TraceIoTest, MalformedNumbersFail) {
  std::stringstream stream(
      "request_id,arrival_time_s,prompt_tokens,decode_tokens\n"
      "0,zero,100,20\n");
  std::vector<Request> loaded;
  const TraceIoResult read = ReadTraceCsv(stream, LmsysLikeProfile(), &loaded);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("malformed"), std::string::npos);
}

TEST(TraceIoTest, OutOfOrderArrivalsFail) {
  std::stringstream stream(
      "request_id,arrival_time_s,prompt_tokens,decode_tokens\n"
      "0,5.0,100,20\n"
      "1,1.0,50,10\n");
  std::vector<Request> loaded;
  const TraceIoResult read = ReadTraceCsv(stream, LmsysLikeProfile(), &loaded);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("non-decreasing"), std::string::npos);
}

TEST(TraceIoTest, NegativeValuesFail) {
  std::stringstream stream(
      "request_id,arrival_time_s,prompt_tokens,decode_tokens\n"
      "0,0.0,-5,20\n");
  std::vector<Request> loaded;
  const TraceIoResult read = ReadTraceCsv(stream, LmsysLikeProfile(), &loaded);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("out-of-range"), std::string::npos);
}

// strtod accepts nan/inf and an int field silently narrows a wider count: 4294967297 would
// load as 1 and 2147483648 as a negative count. Each row here must be rejected on its line.
TEST(TraceIoTest, NonFiniteArrivalsAndOversizedCountsFail) {
  for (const std::string row : {"0,nan,100,20", "0,inf,100,20", "0,-inf,100,20", "0,1e400,100,20",
                                "0,0.0,4294967297,20", "0,0.0,2147483648,20",
                                "0,0.0,100,4294967297", "0,0.0,100,9223372036854775808",
                                "-1,0.0,100,20"}) {
    SCOPED_TRACE(row);
    std::stringstream stream("request_id,arrival_time_s,prompt_tokens,decode_tokens\n"
                             "7,0.0,10,5\n" + row + "\n");
    std::vector<Request> loaded;
    const TraceIoResult read = ReadTraceCsv(stream, LmsysLikeProfile(), &loaded);
    EXPECT_FALSE(read.ok);
    EXPECT_EQ(read.error.rfind("line 3:", 0), 0u) << read.error;
  }
}

TEST(TraceIoTest, EmptyInputFails) {
  std::stringstream stream("");
  std::vector<Request> loaded;
  EXPECT_FALSE(ReadTraceCsv(stream, LmsysLikeProfile(), &loaded).ok);
}

TEST(TraceIoTest, FileHelpersRoundTrip) {
  const std::string path = ::testing::TempDir() + "/fmoe_trace_io_test.csv";
  TraceGenerator generator(TraceProfile{}, LmsysLikeProfile(), 9);
  const std::vector<Request> original = generator.Generate(5);
  ASSERT_TRUE(WriteTraceCsvToFile(original, path).ok);
  std::vector<Request> loaded;
  const TraceIoResult read = ReadTraceCsvFromFile(path, LmsysLikeProfile(), &loaded);
  ASSERT_TRUE(read.ok) << read.error;
  EXPECT_EQ(loaded.size(), 5u);
}

TEST(TraceIoTest, MissingFileFailsCleanly) {
  std::vector<Request> loaded;
  const TraceIoResult read =
      ReadTraceCsvFromFile("/nonexistent/trace.csv", LmsysLikeProfile(), &loaded);
  EXPECT_FALSE(read.ok);
  EXPECT_NE(read.error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace fmoe
