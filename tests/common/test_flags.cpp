#include "corun/common/flags.hpp"

#include <gtest/gtest.h>

namespace corun {
namespace {

Expected<Flags> parse(std::initializer_list<const char*> args,
                      const std::set<std::string>& known,
                      const std::set<std::string>& boolean = {}) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags::parse(static_cast<int>(argv.size()), argv.data(), known,
                      boolean);
}

TEST(Flags, SpaceSeparatedValue) {
  const auto f = parse({"--cap", "15"}, {"cap"});
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f.value().has("cap"));
  EXPECT_DOUBLE_EQ(f.value().get_double("cap", 0.0), 15.0);
}

TEST(Flags, EqualsSeparatedValue) {
  const auto f = parse({"--cap=16.5"}, {"cap"});
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f.value().get_double("cap", 0.0), 16.5);
}

TEST(Flags, BooleanFlag) {
  const auto f = parse({"--online"}, {}, {"online"});
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f.value().has("online"));
}

TEST(Flags, BooleanRejectsValue) {
  EXPECT_FALSE(parse({"--online=yes"}, {}, {"online"}).has_value());
}

TEST(Flags, UnknownFlagRejected) {
  const auto f = parse({"--nope", "1"}, {"cap"});
  ASSERT_FALSE(f.has_value());
  EXPECT_NE(f.error().message.find("--nope"), std::string::npos);
}

TEST(Flags, MissingValueRejected) {
  EXPECT_FALSE(parse({"--cap"}, {"cap"}).has_value());
}

TEST(Flags, PositionalsCollected) {
  const auto f = parse({"a.csv", "--cap", "15", "b.csv"}, {"cap"});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f.value().positional(),
            (std::vector<std::string>{"a.csv", "b.csv"}));
}

TEST(Flags, DefaultsWhenAbsent) {
  const auto f = parse({}, {"cap", "seed", "name"});
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f.value().get_double("cap", 12.5), 12.5);
  EXPECT_EQ(f.value().get_int("seed", 7), 7);
  EXPECT_EQ(f.value().get("name", "x"), "x");
}

TEST(Flags, IntParsing) {
  const auto f = parse({"--seed", "123", "--offset=-3"}, {"seed", "offset"});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f.value().get_int("seed", 0), 123);
  EXPECT_EQ(f.value().get_int("offset", 0), -3);
}

TEST(Flags, MalformedNumbersThrowAFlagErrorNamingTheFlag) {
  const auto expect_flag_error = [](const char* flag, const char* value,
                                    bool integer) {
    const auto f = parse({flag, value}, {"cap", "machines"});
    ASSERT_TRUE(f.has_value());
    const std::string name = std::string(flag).substr(2);
    try {
      if (integer) {
        (void)f.value().get_int(name, 0);
      } else {
        (void)f.value().get_double(name, 0.0);
      }
      ADD_FAILURE() << flag << " " << value << " was read as a number";
    } catch (const FlagError& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  };
  expect_flag_error("--cap", "abc", false);
  expect_flag_error("--machines", "1e9", true);
  for (const char* value : {"", "nan", "inf", "15W", " 15", "0x10"}) {
    expect_flag_error("--cap", value, false);
  }
  for (const char* value : {"", "12.5", "3x", "99999999999999999999"}) {
    expect_flag_error("--machines", value, true);
  }
}

TEST(Flags, ProgramNameRecorded) {
  const auto f = parse({}, {});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f.value().program(), "prog");
}

}  // namespace
}  // namespace corun
