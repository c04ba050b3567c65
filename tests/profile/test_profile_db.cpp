#include "corun/profile/profile_db.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "corun/common/check.hpp"

namespace corun::profile {
namespace {

ProfileEntry entry(double t, double bw, double p) {
  return ProfileEntry{.time = t, .avg_bw = bw, .avg_power = p, .energy = t * p};
}

TEST(ProfileDB, InsertAndLookup) {
  ProfileDB db;
  db.insert("job", sim::DeviceKind::kCpu, 3, entry(10.0, 4.0, 12.0));
  ASSERT_TRUE(db.contains("job", sim::DeviceKind::kCpu, 3));
  EXPECT_FALSE(db.contains("job", sim::DeviceKind::kGpu, 3));
  EXPECT_FALSE(db.contains("job", sim::DeviceKind::kCpu, 4));
  const ProfileEntry& e = db.at("job", sim::DeviceKind::kCpu, 3);
  EXPECT_DOUBLE_EQ(e.time, 10.0);
  EXPECT_DOUBLE_EQ(e.avg_power, 12.0);
}

TEST(ProfileDB, MissingLookupThrowsWithContext) {
  ProfileDB db;
  try {
    (void)db.at("ghost", sim::DeviceKind::kGpu, 1);
    FAIL();
  } catch (const corun::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("GPU"), std::string::npos);
  }
}

TEST(ProfileDB, JobsAndLevelsEnumerated) {
  ProfileDB db;
  db.insert("b", sim::DeviceKind::kCpu, 0, entry(1, 1, 1));
  db.insert("a", sim::DeviceKind::kCpu, 2, entry(1, 1, 1));
  db.insert("a", sim::DeviceKind::kCpu, 0, entry(1, 1, 1));
  db.insert("a", sim::DeviceKind::kGpu, 1, entry(1, 1, 1));
  EXPECT_EQ(db.jobs(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(db.levels("a", sim::DeviceKind::kCpu),
            (std::vector<sim::FreqLevel>{0, 2}));
  EXPECT_EQ(db.levels("a", sim::DeviceKind::kGpu),
            (std::vector<sim::FreqLevel>{1}));
}

TEST(ProfileDB, LevelsReadOnlyTheirOwnRange) {
  // Names that prefix each other sort next to each other ("a" < "a#1" <
  // "ab"), so a range walk that overran its (job, device) pair would pick
  // up a neighbour's levels.
  ProfileDB db;
  db.insert("ab", sim::DeviceKind::kCpu, 1, entry(7, 1, 1));
  db.insert("a#1", sim::DeviceKind::kGpu, 0, entry(6, 1, 1));
  db.insert("a", sim::DeviceKind::kGpu, 4, entry(5, 1, 1));
  db.insert("a#1", sim::DeviceKind::kCpu, 3, entry(4, 1, 1));
  db.insert("a", sim::DeviceKind::kCpu, 9, entry(3, 1, 1));
  db.insert("ab", sim::DeviceKind::kGpu, 2, entry(2, 1, 1));
  db.insert("a", sim::DeviceKind::kCpu, 0, entry(1, 1, 1));
  db.insert("a", sim::DeviceKind::kGpu, 1, entry(8, 1, 1));

  using L = std::vector<sim::FreqLevel>;
  EXPECT_EQ(db.levels("a", sim::DeviceKind::kCpu), (L{0, 9}));
  EXPECT_EQ(db.levels("a", sim::DeviceKind::kGpu), (L{1, 4}));
  EXPECT_EQ(db.levels("a#1", sim::DeviceKind::kCpu), (L{3}));
  EXPECT_EQ(db.levels("a#1", sim::DeviceKind::kGpu), (L{0}));
  EXPECT_EQ(db.levels("ab", sim::DeviceKind::kCpu), (L{1}));
  EXPECT_EQ(db.levels("ab", sim::DeviceKind::kGpu), (L{2}));
  for (const char* unknown : {"", "a#", "aa", "b"}) {
    EXPECT_TRUE(db.levels(unknown, sim::DeviceKind::kCpu).empty()) << unknown;
    EXPECT_TRUE(db.row(unknown, sim::DeviceKind::kGpu).empty()) << unknown;
  }

  // row() walks the same range and carries each level's entry.
  const auto row = db.row("a", sim::DeviceKind::kGpu);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].first, 1);
  EXPECT_EQ(row[0].second.time, 8.0);
  EXPECT_EQ(row[1].first, 4);
  EXPECT_EQ(row[1].second.time, 5.0);
}

TEST(ProfileDB, BestTimeUsesHighestLevel) {
  ProfileDB db;
  db.insert("a", sim::DeviceKind::kCpu, 0, entry(20.0, 1, 1));
  db.insert("a", sim::DeviceKind::kCpu, 5, entry(10.0, 1, 1));
  EXPECT_DOUBLE_EQ(db.best_time("a", sim::DeviceKind::kCpu), 10.0);
}

TEST(ProfileDB, CsvRoundTrip) {
  // Values that need all 17 significant digits: the artifacts a tool
  // writes must predict exactly as the in-memory ones did.
  const double third = 1.0 / 3.0;
  ProfileDB db;
  db.set_idle_power(5.7 + 1e-15);
  db.insert("alpha", sim::DeviceKind::kCpu, 0, entry(12.5, 3.75, 11.0));
  db.insert("alpha", sim::DeviceKind::kGpu, 9,
            ProfileEntry{.time = 92.547625000010015,
                         .avg_bw = 1.1 * 3.0,
                         .avg_power = 2.0 * third,
                         .energy = third});
  std::ostringstream oss;
  db.write_csv(oss);
  const auto parsed = ProfileDB::read_csv(oss.str());
  ASSERT_TRUE(parsed.has_value());
  const ProfileDB& round = parsed.value();
  EXPECT_EQ(round.idle_power(), 5.7 + 1e-15);
  EXPECT_EQ(round.at("alpha", sim::DeviceKind::kCpu, 0).time, 12.5);
  const ProfileEntry& e = round.at("alpha", sim::DeviceKind::kGpu, 9);
  EXPECT_EQ(e.time, 92.547625000010015);
  EXPECT_EQ(e.avg_bw, 1.1 * 3.0);
  EXPECT_EQ(e.avg_power, 2.0 * third);
  EXPECT_EQ(e.energy, third);
}

TEST(ProfileDB, MalformedCsvRejected) {
  EXPECT_FALSE(ProfileDB::read_csv("not,a,profile\n1,2,3\n").has_value());
  EXPECT_FALSE(ProfileDB::read_csv("job,device,level\nx,cpu,0\n").has_value());
  const std::string header =
      "job,device,level,time_s,avg_bw_gbps,avg_power_w,energy_j\n";
  ASSERT_TRUE(ProfileDB::read_csv(header + "x,gpu,3,1.5,2,10,15\n").has_value());
  for (const char* row : {
           "x,npu,3,1.5,2,10,15",    // not cpu|gpu
           "x,cpu,3x,1.5,2,10,15",
           "x,cpu,3,nan,2,10,15",
           "x,cpu,3,1.5,inf,10,15",
           "x,cpu,3,1.5,2,10,15J",
           "x,cpu,-1,1.5,2,10,15",   // insert()'s contract, as an error
           "x,cpu,3,0,2,10,15",
           ",cpu,3,1.5,2,10,15",
           "__idle__,-,0,0,0,nan,0",
       }) {
    const auto db = ProfileDB::read_csv(header + row + "\n");
    ASSERT_FALSE(db.has_value()) << row;
    EXPECT_EQ(db.error().category, ErrorCategory::kParse) << row;
  }
}

TEST(ProfileDB, InvalidInsertRejected) {
  ProfileDB db;
  EXPECT_THROW(db.insert("", sim::DeviceKind::kCpu, 0, entry(1, 1, 1)),
               corun::ContractViolation);
  EXPECT_THROW(db.insert("x", sim::DeviceKind::kCpu, -1, entry(1, 1, 1)),
               corun::ContractViolation);
  EXPECT_THROW(db.insert("x", sim::DeviceKind::kCpu, 0, entry(0, 1, 1)),
               corun::ContractViolation);
}

TEST(ProfileDB, OverwriteKeepsLatest) {
  ProfileDB db;
  db.insert("x", sim::DeviceKind::kCpu, 0, entry(1, 1, 1));
  db.insert("x", sim::DeviceKind::kCpu, 0, entry(2, 2, 2));
  EXPECT_DOUBLE_EQ(db.at("x", sim::DeviceKind::kCpu, 0).time, 2.0);
  EXPECT_EQ(db.size(), 1u);
}

}  // namespace
}  // namespace corun::profile
