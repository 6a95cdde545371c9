#include "util/args.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mstc::util {
namespace {

ArgParser parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, KeyValuePairs) {
  const auto args = parse({"--protocol", "RNG", "--speed=40"});
  EXPECT_EQ(args.get("protocol", std::string("x")), "RNG");
  EXPECT_DOUBLE_EQ(args.get("speed", 0.0), 40.0);
}

TEST(ArgParser, BareSwitch) {
  const auto args = parse({"--pn", "--buffer", "10"});
  EXPECT_TRUE(args.get_flag("pn"));
  EXPECT_FALSE(args.get_flag("adaptive"));
  EXPECT_DOUBLE_EQ(args.get("buffer", 0.0), 10.0);
}

TEST(ArgParser, SwitchFollowedByOption) {
  // "--pn --mode weak": --pn must not consume --mode as its value.
  const auto args = parse({"--pn", "--mode", "weak"});
  EXPECT_TRUE(args.get_flag("pn"));
  EXPECT_EQ(args.get("mode", std::string("latest")), "weak");
}

TEST(ArgParser, TypedFallbacks) {
  const auto args =
      parse({"--count", "7", "--bad", "x7", "--negative", "-1", "--big",
             "99999999999999999999", "--speed", "1e999", "--bare"});
  EXPECT_EQ(args.get("count", 0L), 7);
  EXPECT_EQ(args.get_count("count", 0), 7u);
  EXPECT_EQ(args.get("missing", 9L), 9);
  EXPECT_EQ(args.get_count("missing", 9), 9u);
  EXPECT_DOUBLE_EQ(args.get("missing", 2.5), 2.5);
  // A malformed or out-of-range number is an error naming the flag, never
  // a silent fallback; a count must not be negative.
  EXPECT_THROW((void)args.get("bad", 3L), std::invalid_argument);
  EXPECT_THROW((void)args.get("bad", 3.0), std::invalid_argument);
  EXPECT_THROW((void)args.get("big", 0L), std::invalid_argument);
  EXPECT_THROW((void)args.get("speed", 0.0), std::invalid_argument);
  EXPECT_THROW((void)args.get_count("bare", 1), std::invalid_argument);
  EXPECT_EQ(args.get("negative", 0L), -1);
  try {
    (void)args.get_count("negative", 0);
    ADD_FAILURE() << "a negative count was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "--negative: expected a non-negative integer, got '-1'");
  }
}

TEST(ArgParser, PositionalArguments) {
  const auto args = parse({"alpha", "--k", "v", "beta"});
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"alpha", "beta"}));
}

TEST(ArgParser, UnknownTracksUnqueriedOptions) {
  const auto args = parse({"--known", "1", "--typo", "2"});
  (void)args.get("known", 0L);
  const auto unknown = args.unknown();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(ArgParser, ValueOfBareSwitchIsNullopt) {
  const auto args = parse({"--flag"});
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.value("flag").has_value());
}

}  // namespace
}  // namespace mstc::util
