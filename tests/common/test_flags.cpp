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
  EXPECT_DOUBLE_EQ(f.value().number<double>("cap", 0.0), 15.0);
}

TEST(Flags, EqualsSeparatedValue) {
  const auto f = parse({"--cap=16.5"}, {"cap"});
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f.value().number<double>("cap", 0.0), 16.5);
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
  EXPECT_DOUBLE_EQ(f.value().number<double>("cap", 12.5), 12.5);
  EXPECT_EQ(f.value().number<std::uint64_t>("seed", 7), 7u);
  EXPECT_EQ(f.value().get("name", "x"), "x");
}

TEST(Flags, IntParsing) {
  const auto f = parse({"--seed", "123", "--offset=-3", "--top",
                        "18446744073709551615"},
                       {"seed", "offset", "top"});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f.value().number<std::uint64_t>("seed", 0), 123u);
  EXPECT_EQ(f.value().number<std::int64_t>("offset", 0), -3);
  EXPECT_EQ(f.value().number<std::uint64_t>("top", 0), UINT64_MAX);
}

/// Reads `--<name> <value>` with `read` and expects a FlagError naming the
/// flag.
template <typename Read>
void expect_flag_error(const char* flag, const char* value, Read read) {
  const auto f = parse({flag, value}, {"cap", "machines", "seed"});
  ASSERT_TRUE(f.has_value());
  const std::string name = std::string(flag).substr(2);
  try {
    (void)read(f.value(), name);
    ADD_FAILURE() << flag << " " << value << " was read";
  } catch (const FlagError& e) {
    EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
        << e.what();
  }
}

const auto read_double = [](const Flags& f, const std::string& name) {
  return f.number<double>(name, 0.0);
};
const auto read_count = [](const Flags& f, const std::string& name) {
  return f.number<std::size_t>(name, 0);
};

TEST(Flags, MalformedNumbersThrowAFlagErrorNamingTheFlag) {
  expect_flag_error("--cap", "abc", read_double);
  expect_flag_error("--machines", "1e9", read_count);
  for (const char* value : {"", "nan", "inf", "15W", " 15", "0x10"}) {
    expect_flag_error("--cap", value, read_double);
  }
  // Counts and seeds are unsigned: a sign is a FlagError, never a huge
  // count or the seed 2^64 - 1.
  for (const char* value : {"", "12.5", "3x", "99999999999999999999", "-1",
                            "-0", "+3"}) {
    expect_flag_error("--machines", value, read_count);
    expect_flag_error("--seed", value, [](const Flags& f, const std::string& n) {
      return f.number<std::uint64_t>(n, 42);
    });
  }
}

TEST(Flags, PositiveRejectsZeroAndNegativeValues) {
  const auto read_positive = [](const Flags& f, const std::string& name) {
    return f.positive<double>(name, 1.0);
  };
  for (const char* value : {"0", "-5", "-0.0", "abc"}) {
    expect_flag_error("--cap", value, read_positive);
  }
  expect_flag_error("--machines", "0", [](const Flags& f, const std::string& n) {
    return f.positive<std::size_t>(n, 1);
  });
  const auto f = parse({"--cap", "0.5"}, {"cap"});
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f.value().positive<double>("cap", 1.0), 0.5);
  EXPECT_EQ(f.value().positive<std::size_t>("machines", 3), 3u);
}

TEST(Flags, ProgramNameRecorded) {
  const auto f = parse({}, {});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f.value().program(), "prog");
}

}  // namespace
}  // namespace corun
