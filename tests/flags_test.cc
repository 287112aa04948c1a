#include "src/util/flags.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fmoe {
namespace {

// The variables a test parser's flags are bound to.
struct Targets {
  std::string name;
  int64_t count = 0;
  double rate = 0.0;
  bool verbose = true;
};

// Owns the targets so they outlive the parser bound to them.
struct TestParser {
  Targets values;
  FlagParser parser{"tool", "test tool"};

  TestParser() {
    parser.Add("name", &values.name, "default", "a string");
    parser.Add("count", &values.count, 7, "an int");
    parser.Add("rate", &values.rate, 0.5, "a double");
    parser.Add("verbose", &values.verbose, false, "a bool");
  }
};

bool ParseArgs(FlagParser& parser, std::vector<const char*> args, std::string* error) {
  args.insert(args.begin(), "tool");
  return parser.Parse(static_cast<int>(args.size()), args.data(), error);
}

enum class Color { kRed, kGreen };

bool ParseColor(const std::string& name, Color* color) {
  if (name == "red") {
    *color = Color::kRed;
  } else if (name == "green") {
    *color = Color::kGreen;
  } else {
    return false;
  }
  return true;
}

TEST(FlagParserTest, DefaultsApplyWithoutArguments) {
  TestParser t;
  // Registration already wrote every default.
  EXPECT_EQ(t.values.name, "default");
  EXPECT_EQ(t.values.count, 7);
  EXPECT_DOUBLE_EQ(t.values.rate, 0.5);
  EXPECT_FALSE(t.values.verbose);
  std::string error;
  EXPECT_TRUE(ParseArgs(t.parser, {}, &error));
  EXPECT_EQ(t.values.name, "default");
  EXPECT_EQ(t.values.count, 7);
}

TEST(FlagParserTest, SpaceSeparatedValues) {
  TestParser t;
  std::string error;
  EXPECT_TRUE(ParseArgs(t.parser, {"--name", "x", "--count", "42", "--rate", "1.25"}, &error));
  EXPECT_EQ(t.values.name, "x");
  EXPECT_EQ(t.values.count, 42);
  EXPECT_DOUBLE_EQ(t.values.rate, 1.25);
}

TEST(FlagParserTest, EqualsSeparatedValues) {
  TestParser t;
  std::string error;
  EXPECT_TRUE(ParseArgs(t.parser, {"--name=y", "--count=-3", "--verbose=true"}, &error));
  EXPECT_EQ(t.values.name, "y");
  EXPECT_EQ(t.values.count, -3);
  EXPECT_TRUE(t.values.verbose);
}

TEST(FlagParserTest, BareBooleanFlag) {
  TestParser t;
  std::string error;
  EXPECT_TRUE(ParseArgs(t.parser, {"--verbose", "--count", "1"}, &error));
  EXPECT_TRUE(t.values.verbose);
  EXPECT_EQ(t.values.count, 1);
}

TEST(FlagParserTest, BooleanAcceptsManySpellings) {
  for (const char* truthy : {"true", "1", "yes"}) {
    TestParser t;
    std::string error;
    EXPECT_TRUE(ParseArgs(t.parser, {"--verbose", truthy}, &error)) << truthy;
    EXPECT_TRUE(t.values.verbose);
  }
  for (const char* falsy : {"false", "0", "no"}) {
    TestParser t;
    std::string error;
    EXPECT_TRUE(ParseArgs(t.parser, {"--verbose", falsy}, &error)) << falsy;
    EXPECT_FALSE(t.values.verbose);
  }
}

// Every supported target type receives its default at registration and its parsed value.
TEST(FlagParserTest, EachTargetTypeIsWritten) {
  std::string s;
  bool b = false;
  double d = 0.0;
  int i = 0;
  int64_t i64 = 0;
  size_t z = 0;
  uint64_t u64 = 0;
  FlagParser parser("tool", "test tool");
  parser.Add("s", &s, "dflt", "h");
  parser.Add("b", &b, true, "h");
  parser.Add("d", &d, 2.5, "h");
  parser.Add("i", &i, -4, "h");
  parser.Add("i64", &i64, int64_t{1} << 40, "h");
  parser.Add("z", &z, 80, "h");
  parser.Add("u64", &u64, 42, "h");
  EXPECT_EQ(s, "dflt");
  EXPECT_TRUE(b);
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_EQ(i, -4);
  EXPECT_EQ(i64, int64_t{1} << 40);
  EXPECT_EQ(z, 80u);
  EXPECT_EQ(u64, 42u);

  std::string error;
  ASSERT_TRUE(ParseArgs(parser,
                        {"--s=x", "--b=no", "--d=-0.25", "--i=-2147483648",
                         "--i64=-9223372036854775808", "--z=0", "--u64=18446744073709551615"},
                        &error))
      << error;
  EXPECT_EQ(s, "x");
  EXPECT_FALSE(b);
  EXPECT_DOUBLE_EQ(d, -0.25);
  EXPECT_EQ(i, INT32_MIN);
  EXPECT_EQ(i64, INT64_MIN);
  EXPECT_EQ(z, 0u);
  EXPECT_EQ(u64, UINT64_MAX);
}

TEST(FlagParserTest, NegativeValueIntoUnsignedFails) {
  size_t count = 0;
  FlagParser parser("tool", "test tool");
  parser.Add("requests", &count, 24, "h");
  std::string error;
  EXPECT_FALSE(ParseArgs(parser, {"--requests", "-1"}, &error));
  EXPECT_NE(error.find("invalid integer for --requests: '-1'"), std::string::npos) << error;
  EXPECT_NE(error.find("expected 0.."), std::string::npos) << error;
}

TEST(FlagParserTest, OutOfRangeIntFails) {
  int value = 0;
  FlagParser parser("tool", "test tool");
  parser.Add("batch", &value, 1, "h");
  std::string error;
  EXPECT_FALSE(ParseArgs(parser, {"--batch=1099511627776"}, &error));  // 2^40.
  EXPECT_NE(error.find("invalid integer for --batch"), std::string::npos) << error;
  EXPECT_NE(error.find("-2147483648..2147483647"), std::string::npos) << error;
  EXPECT_FALSE(ParseArgs(parser, {"--batch=-2147483649"}, &error));
}

TEST(FlagParserTest, EnumFlagParsesThroughItsParser) {
  Color color = Color::kGreen;
  FlagParser parser("tool", "test tool");
  parser.Add("color", &color, "red", ParseColor, "red | green", "a color");
  EXPECT_EQ(color, Color::kRed);  // The default is parsed at registration.
  std::string error;
  ASSERT_TRUE(ParseArgs(parser, {"--color", "green"}, &error)) << error;
  EXPECT_EQ(color, Color::kGreen);
  EXPECT_NE(parser.Usage().find("--color (default: red)"), std::string::npos);
}

TEST(FlagParserTest, EnumErrorNamesTheFlagAndTheSpellings) {
  Color color = Color::kRed;
  FlagParser parser("tool", "test tool");
  parser.Add("color", &color, "red", ParseColor, "red | green", "a color");
  std::string error;
  EXPECT_FALSE(ParseArgs(parser, {"--color=blue"}, &error));
  EXPECT_EQ(error, "invalid value for --color: 'blue' (expected red | green)");
}

TEST(FlagParserTest, UnknownFlagFails) {
  TestParser t;
  std::string error;
  EXPECT_FALSE(ParseArgs(t.parser, {"--bogus", "1"}, &error));
  EXPECT_NE(error.find("unknown flag"), std::string::npos);
}

TEST(FlagParserTest, MalformedNumbersFail) {
  std::string error;
  TestParser t1;
  EXPECT_FALSE(ParseArgs(t1.parser, {"--count", "12x"}, &error));
  EXPECT_NE(error.find("invalid integer"), std::string::npos);

  TestParser t2;
  EXPECT_FALSE(ParseArgs(t2.parser, {"--rate", "fast"}, &error));
  EXPECT_NE(error.find("invalid number"), std::string::npos);

  TestParser t3;
  EXPECT_FALSE(ParseArgs(t3.parser, {"--verbose=maybe"}, &error));
  EXPECT_NE(error.find("invalid boolean"), std::string::npos);
}

TEST(FlagParserTest, MissingValueFails) {
  TestParser t;
  std::string error;
  EXPECT_FALSE(ParseArgs(t.parser, {"--count"}, &error));
  EXPECT_NE(error.find("missing value"), std::string::npos);
}

TEST(FlagParserTest, PositionalArgumentsRejected) {
  TestParser t;
  std::string error;
  EXPECT_FALSE(ParseArgs(t.parser, {"stray"}, &error));
  EXPECT_NE(error.find("unexpected argument"), std::string::npos);
}

TEST(FlagParserTest, HelpRequestedStopsParsing) {
  TestParser t;
  std::string error = "sentinel";
  EXPECT_FALSE(ParseArgs(t.parser, {"--help"}, &error));
  EXPECT_TRUE(t.parser.help_requested());
  EXPECT_TRUE(error.empty());
}

TEST(FlagParserTest, UsageListsAllFlags) {
  TestParser t;
  const std::string usage = t.parser.Usage();
  for (const char* name : {"--name", "--count", "--rate", "--verbose", "--help"}) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
  }
}

TEST(FlagParserTest, UsageShowsTheDefaultText) {
  TestParser t;
  std::string empty;
  t.parser.Add("empty", &empty, "", "h");
  const std::string usage = t.parser.Usage();
  for (const char* line : {"--name (default: default)\n      a string\n",
                           "--count (default: 7)\n", "--rate (default: 0.5)\n",
                           "--verbose (default: false)\n", "--empty (default: \"\")\n"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line;
  }
}

// '_' and '-' are one character in flag names, in the `=value` and the separate-value forms,
// whichever spelling the flag was registered with.
TEST(FlagParserTest, UnderscoreAndDashNameTheSameFlag) {
  for (const std::vector<const char*>& args :
       {std::vector<const char*>{"--a_b=x", "--c-d=5"},
        std::vector<const char*>{"--a-b=x", "--c_d=5"},
        std::vector<const char*>{"--a_b", "x", "--c-d", "5"},
        std::vector<const char*>{"--a-b", "x", "--c_d", "5"}}) {
    std::string a_b;
    int c_d = 0;
    FlagParser parser("tool", "test tool");
    parser.Add("a_b", &a_b, "", "registered with an underscore");
    parser.Add("c-d", &c_d, 0, "registered with a dash");
    std::string error;
    ASSERT_TRUE(ParseArgs(parser, args, &error)) << error;
    EXPECT_EQ(a_b, "x");
    EXPECT_EQ(c_d, 5);
  }
  std::string a_b;
  FlagParser parser("tool", "test tool");
  parser.Add("a_b", &a_b, "", "h");
  EXPECT_NE(parser.Usage().find("--a_b"), std::string::npos);  // Listed as registered.
}

using FlagParserDeathTest = ::testing::Test;

TEST(FlagParserDeathTest, DuplicateRegistrationAborts) {
  int x = 0;
  std::string s;
  FlagParser parser("t", "d");
  parser.Add("x", &x, 1, "h");
  EXPECT_DEATH(parser.Add("x", &s, "", "h"), "duplicate flag");
  parser.Add("a_b", &x, 1, "h");
  EXPECT_DEATH(parser.Add("a-b", &x, 1, "h"), "duplicate flag");
}

}  // namespace
}  // namespace fmoe
