// Tests for the command-line flag parser.

#include "common/flags.h"

#include <gtest/gtest.h>

#include "graph/distance_oracle.h"

namespace ptar {
namespace {

StatusOr<FlagParser> ParseArgs(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return FlagParser::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParserTest, EmptyArgs) {
  auto flags = ParseArgs({});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags->Has("anything"));
  EXPECT_TRUE(flags->positional().empty());
  EXPECT_TRUE(flags->UnusedFlags().empty());
}

TEST(FlagParserTest, KeyValueForm) {
  auto flags = ParseArgs({"--name=value", "--count=42"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("name", ""), "value");
  auto count = flags->GetInt("count", 0);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 42);
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  auto flags = ParseArgs({});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("missing", "fallback"), "fallback");
  EXPECT_EQ(*flags->GetInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(*flags->GetDouble("missing", 2.5), 2.5);
  EXPECT_TRUE(*flags->GetBool("missing", true));
}

TEST(FlagParserTest, BareSwitchIsTrue) {
  auto flags = ParseArgs({"--verbose"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->Has("verbose"));
  EXPECT_TRUE(*flags->GetBool("verbose", false));
}

TEST(FlagParserTest, ExplicitBooleans) {
  auto flags = ParseArgs({"--a=true", "--b=false", "--c=1", "--d=0"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(*flags->GetBool("a", false));
  EXPECT_FALSE(*flags->GetBool("b", true));
  EXPECT_TRUE(*flags->GetBool("c", false));
  EXPECT_FALSE(*flags->GetBool("d", true));
}

TEST(FlagParserTest, TypeErrorsAreStatuses) {
  auto flags = ParseArgs({"--count=abc", "--rate=x.y", "--flag=maybe"});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags->GetInt("count", 0).ok());
  EXPECT_FALSE(flags->GetDouble("rate", 0).ok());
  EXPECT_FALSE(flags->GetBool("flag", false).ok());
}

TEST(FlagParserTest, NegativeAndFloatValues) {
  auto flags = ParseArgs({"--offset=-12", "--ratio=0.25"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(*flags->GetInt("offset", 0), -12);
  EXPECT_DOUBLE_EQ(*flags->GetDouble("ratio", 0), 0.25);
}

TEST(FlagParserTest, PositionalsCollected) {
  auto flags = ParseArgs({"alpha", "--k=v", "beta"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->positional(),
            (std::vector<std::string>{"alpha", "beta"}));
}

TEST(FlagParserTest, DoubleDashEndsFlags) {
  auto flags = ParseArgs({"--k=v", "--", "--not-a-flag"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->positional(),
            (std::vector<std::string>{"--not-a-flag"}));
}

TEST(FlagParserTest, MalformedFlagRejected) {
  EXPECT_FALSE(ParseArgs({"--=x"}).ok());
}

TEST(FlagParserTest, RepeatedFlagRejected) {
  EXPECT_FALSE(ParseArgs({"--k=1", "--k=2"}).ok());
}

TEST(FlagParserTest, UnusedFlagsTracked) {
  auto flags = ParseArgs({"--used=1", "--typo=2"});
  ASSERT_TRUE(flags.ok());
  (void)flags->GetInt("used", 0);
  EXPECT_EQ(flags->UnusedFlags(), std::vector<std::string>{"typo"});
  // Reading it clears the report.
  (void)flags->GetInt("typo", 0);
  EXPECT_TRUE(flags->UnusedFlags().empty());
}

// Round-trip of the shared CLI flag validators: every bad value must come
// back as a Status (which the CLIs turn into a nonzero exit), never crash.
TEST(FlagValidatorsTest, DistanceBackendRejectsUnknownNames) {
  EXPECT_FALSE(ParseDistanceBackend("bogus").ok());
  EXPECT_FALSE(ParseDistanceBackend("").ok());
  ASSERT_TRUE(ParseDistanceBackend("dijkstra").ok());
  ASSERT_TRUE(ParseDistanceBackend("ch").ok());
  EXPECT_EQ(*ParseDistanceBackend("dijkstra"), DistanceBackend::kDijkstra);
  EXPECT_EQ(*ParseDistanceBackend("ch"), DistanceBackend::kCH);
}

TEST(FlagParserTest, EmptyStringValue) {
  auto flags = ParseArgs({"--name="});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->Has("name"));
  EXPECT_EQ(flags->GetString("name", "default"), "");
}

}  // namespace
}  // namespace ptar
