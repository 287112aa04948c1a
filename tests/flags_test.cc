#include "src/util/flags.h"

#include <gtest/gtest.h>

namespace fmoe {
namespace {

FlagParser MakeParser() {
  FlagParser parser("tool", "test tool");
  parser.AddString("name", "default", "a string");
  parser.AddInt("count", 7, "an int");
  parser.AddDouble("rate", 0.5, "a double");
  parser.AddBool("verbose", false, "a bool");
  return parser;
}

bool ParseArgs(FlagParser& parser, std::vector<const char*> args, std::string* error) {
  args.insert(args.begin(), "tool");
  return parser.Parse(static_cast<int>(args.size()), args.data(), error);
}

TEST(FlagParserTest, DefaultsApplyWithoutArguments) {
  FlagParser parser = MakeParser();
  std::string error;
  EXPECT_TRUE(ParseArgs(parser, {}, &error));
  EXPECT_EQ(parser.GetString("name"), "default");
  EXPECT_EQ(parser.GetInt("count"), 7);
  EXPECT_DOUBLE_EQ(parser.GetDouble("rate"), 0.5);
  EXPECT_FALSE(parser.GetBool("verbose"));
  EXPECT_FALSE(parser.WasSet("name"));
}

TEST(FlagParserTest, SpaceSeparatedValues) {
  FlagParser parser = MakeParser();
  std::string error;
  EXPECT_TRUE(ParseArgs(parser, {"--name", "x", "--count", "42", "--rate", "1.25"}, &error));
  EXPECT_EQ(parser.GetString("name"), "x");
  EXPECT_EQ(parser.GetInt("count"), 42);
  EXPECT_DOUBLE_EQ(parser.GetDouble("rate"), 1.25);
  EXPECT_TRUE(parser.WasSet("count"));
}

TEST(FlagParserTest, EqualsSeparatedValues) {
  FlagParser parser = MakeParser();
  std::string error;
  EXPECT_TRUE(ParseArgs(parser, {"--name=y", "--count=-3", "--verbose=true"}, &error));
  EXPECT_EQ(parser.GetString("name"), "y");
  EXPECT_EQ(parser.GetInt("count"), -3);
  EXPECT_TRUE(parser.GetBool("verbose"));
}

TEST(FlagParserTest, BareBooleanFlag) {
  FlagParser parser = MakeParser();
  std::string error;
  EXPECT_TRUE(ParseArgs(parser, {"--verbose"}, &error));
  EXPECT_TRUE(parser.GetBool("verbose"));
}

TEST(FlagParserTest, BooleanAcceptsManySpellings) {
  for (const char* truthy : {"true", "1", "yes"}) {
    FlagParser parser = MakeParser();
    std::string error;
    EXPECT_TRUE(ParseArgs(parser, {"--verbose", truthy}, &error)) << truthy;
    EXPECT_TRUE(parser.GetBool("verbose"));
  }
  for (const char* falsy : {"false", "0", "no"}) {
    FlagParser parser = MakeParser();
    std::string error;
    EXPECT_TRUE(ParseArgs(parser, {"--verbose", falsy}, &error)) << falsy;
    EXPECT_FALSE(parser.GetBool("verbose"));
  }
}

TEST(FlagParserTest, UnknownFlagFails) {
  FlagParser parser = MakeParser();
  std::string error;
  EXPECT_FALSE(ParseArgs(parser, {"--bogus", "1"}, &error));
  EXPECT_NE(error.find("unknown flag"), std::string::npos);
}

TEST(FlagParserTest, MalformedNumbersFail) {
  FlagParser parser = MakeParser();
  std::string error;
  EXPECT_FALSE(ParseArgs(parser, {"--count", "12x"}, &error));
  EXPECT_NE(error.find("invalid integer"), std::string::npos);

  FlagParser parser2 = MakeParser();
  EXPECT_FALSE(ParseArgs(parser2, {"--rate", "fast"}, &error));
  EXPECT_NE(error.find("invalid number"), std::string::npos);

  FlagParser parser3 = MakeParser();
  EXPECT_FALSE(ParseArgs(parser3, {"--verbose=maybe"}, &error));
  EXPECT_NE(error.find("invalid boolean"), std::string::npos);
}

TEST(FlagParserTest, MissingValueFails) {
  FlagParser parser = MakeParser();
  std::string error;
  EXPECT_FALSE(ParseArgs(parser, {"--count"}, &error));
  EXPECT_NE(error.find("missing value"), std::string::npos);
}

TEST(FlagParserTest, PositionalArgumentsRejected) {
  FlagParser parser = MakeParser();
  std::string error;
  EXPECT_FALSE(ParseArgs(parser, {"stray"}, &error));
  EXPECT_NE(error.find("unexpected argument"), std::string::npos);
}

TEST(FlagParserTest, HelpRequestedStopsParsing) {
  FlagParser parser = MakeParser();
  std::string error = "sentinel";
  EXPECT_FALSE(ParseArgs(parser, {"--help"}, &error));
  EXPECT_TRUE(parser.help_requested());
  EXPECT_TRUE(error.empty());
}

TEST(FlagParserTest, UsageListsAllFlags) {
  FlagParser parser = MakeParser();
  const std::string usage = parser.Usage();
  for (const char* name : {"--name", "--count", "--rate", "--verbose", "--help"}) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
  }
}

// '_' and '-' are one character in flag names, in the `=value` and the separate-value forms
// and in the accessors, whichever spelling the flag was registered with.
TEST(FlagParserTest, UnderscoreAndDashNameTheSameFlag) {
  for (const std::vector<const char*>& args :
       {std::vector<const char*>{"--a_b=x", "--c-d=5"},
        std::vector<const char*>{"--a-b=x", "--c_d=5"},
        std::vector<const char*>{"--a_b", "x", "--c-d", "5"},
        std::vector<const char*>{"--a-b", "x", "--c_d", "5"}}) {
    FlagParser parser("tool", "test tool");
    parser.AddString("a_b", "", "registered with an underscore");
    parser.AddInt("c-d", 0, "registered with a dash");
    std::string error;
    ASSERT_TRUE(ParseArgs(parser, args, &error)) << error;
    EXPECT_EQ(parser.GetString("a_b"), "x");
    EXPECT_EQ(parser.GetString("a-b"), "x");
    EXPECT_EQ(parser.GetInt("c-d"), 5);
    EXPECT_EQ(parser.GetInt("c_d"), 5);
    EXPECT_TRUE(parser.WasSet("a-b"));
  }
  FlagParser parser("tool", "test tool");
  parser.AddString("a_b", "", "h");
  EXPECT_NE(parser.Usage().find("--a_b"), std::string::npos);  // Listed as registered.
}

using FlagParserDeathTest = ::testing::Test;

TEST(FlagParserDeathTest, TypeMismatchAborts) {
  FlagParser parser = MakeParser();
  std::string error;
  ParseArgs(parser, {}, &error);
  EXPECT_DEATH(parser.GetInt("name"), "is not a int");
}

TEST(FlagParserDeathTest, DuplicateRegistrationAborts) {
  FlagParser parser("t", "d");
  parser.AddInt("x", 1, "h");
  EXPECT_DEATH(parser.AddString("x", "", "h"), "duplicate flag");
  parser.AddInt("a_b", 1, "h");
  EXPECT_DEATH(parser.AddInt("a-b", 1, "h"), "duplicate flag");
}

}  // namespace
}  // namespace fmoe
