#include "util/args.h"

#include <gtest/gtest.h>

namespace seg {
namespace {

ArgParser make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, EqualsForm) {
  const auto p = make({"--n=128", "--tau=0.42"});
  EXPECT_EQ(p.get_int("n"), 128);
  EXPECT_DOUBLE_EQ(p.get_double("tau"), 0.42);
}

TEST(ArgParser, SpaceForm) {
  const auto p = make({"--n", "64", "--name", "fig1"});
  EXPECT_EQ(p.get_int("n"), 64);
  EXPECT_EQ(p.get_string("name"), "fig1");
}

TEST(ArgParser, BooleanFlag) {
  const auto p = make({"--verbose"});
  EXPECT_TRUE(p.get_bool("verbose"));
  EXPECT_TRUE(p.has("verbose"));
}

TEST(ArgParser, BoolSpellings) {
  const auto p = make({"--a=true", "--b=0", "--c=yes", "--d=off"});
  EXPECT_TRUE(p.get_bool("a"));
  EXPECT_FALSE(p.get_bool("b"));
  EXPECT_TRUE(p.get_bool("c"));
  EXPECT_FALSE(p.get_bool("d"));
}

TEST(ArgParser, DefaultsWhenMissing) {
  const auto p = make({});
  EXPECT_EQ(p.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(p.get_double("tau", 0.5), 0.5);
  EXPECT_EQ(p.get_string("out", "x.csv"), "x.csv");
  EXPECT_FALSE(p.get_bool("flag", false));
  EXPECT_TRUE(p.get_bool("flag2", true));
}

TEST(ArgParser, MalformedNumbersFallBack) {
  const auto p = make({"--n=abc", "--tau=zz"});
  EXPECT_EQ(p.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(p.get_double("tau", 0.25), 0.25);
}

TEST(ArgParser, PositionalCollected) {
  const auto p = make({"input.txt", "--n=3", "other"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.txt");
  EXPECT_EQ(p.positional()[1], "other");
}

TEST(ArgParser, ProgramNameCaptured) {
  const auto p = make({});
  EXPECT_EQ(p.program_name(), "prog");
}

TEST(ArgParser, FlagFollowedByFlagIsBoolean) {
  const auto p = make({"--fast", "--n=10"});
  EXPECT_TRUE(p.get_bool("fast"));
  EXPECT_EQ(p.get_int("n"), 10);
}

TEST(ArgParser, LastValueWins) {
  const auto p = make({"--n=1", "--n=2"});
  EXPECT_EQ(p.get_int("n"), 2);
}

TEST(ArgParser, NegativeNumbersAsValues) {
  const auto p = make({"--offset=-5"});
  EXPECT_EQ(p.get_int("offset"), -5);
}

TEST(ArgParser, NegativeUnsignedRecordsErrorInsteadOfWrapping) {
  const auto p = make({"--seed", "-1", "--threads", "4"});
  EXPECT_EQ(p.get_u64("seed", 37), 37u);
  EXPECT_EQ(p.get_u64("threads", 1), 4u);
  EXPECT_EQ(p.get_u64("absent", 9), 9u);
  ASSERT_EQ(p.errors().size(), 1u);
  EXPECT_NE(p.errors()[0].find("--seed"), std::string::npos);
  EXPECT_NE(p.errors()[0].find("'-1'"), std::string::npos);
}

TEST(ArgParser, ReportErrorsSaysWhetherAnyValueWasMalformed) {
  const auto clean = make({"--seed", "3"});
  EXPECT_EQ(clean.get_u64("seed", 1), 3u);
  EXPECT_FALSE(clean.report_errors());
  const auto bad = make({"--seed", "-1"});
  EXPECT_EQ(bad.get_u64("seed", 1), 1u);
  EXPECT_TRUE(bad.report_errors());
}

TEST(ArgParser, MalformedBoolRecordsError) {
  const auto p = make({"--resume", "maybe", "--quiet"});
  EXPECT_FALSE(p.get_bool("resume", false));
  EXPECT_TRUE(p.get_bool("quiet", false));
  ASSERT_EQ(p.errors().size(), 1u);
  EXPECT_NE(p.errors()[0].find("--resume"), std::string::npos);
  EXPECT_NE(p.errors()[0].find("'maybe'"), std::string::npos);
}

TEST(ArgParser, UnreadFlagsAreReported) {
  // campaign_runner reads every flag it knows, then refuses to run if
  // anything is left: `--bogus-flag 7` must not be silently ignored.
  const auto p = make({"--seed", "3", "--bogus-flag", "7", "--quiet"});
  EXPECT_EQ(p.get_int("seed"), 3);
  EXPECT_TRUE(p.get_bool("quiet"));
  EXPECT_FALSE(p.has("absent"));
  EXPECT_EQ(p.unread(), std::vector<std::string>{"bogus-flag"});
  EXPECT_TRUE(p.errors().empty());
  EXPECT_EQ(p.get_string("bogus-flag"), "7");
  EXPECT_TRUE(p.unread().empty());
}

TEST(ArgParser, StrayWordIsPositionalNotUnread) {
  // `campaign_runner region_size --seed 3` (no --scenario): the word is
  // neither a flag nor a flag's value, so unread() cannot report it;
  // campaign_runner refuses any positional() entry as well.
  const auto p = make({"region_size", "--seed", "3", "extra", "--quiet"});
  EXPECT_EQ(p.get_int("seed"), 3);
  EXPECT_TRUE(p.get_bool("quiet"));
  EXPECT_TRUE(p.unread().empty());
  EXPECT_EQ(p.positional(),
            (std::vector<std::string>{"region_size", "extra"}));
}

TEST(ArgParser, HasIsFalseForMissing) {
  const auto p = make({"--x=1"});
  EXPECT_TRUE(p.has("x"));
  EXPECT_FALSE(p.has("y"));
}

}  // namespace
}  // namespace seg
