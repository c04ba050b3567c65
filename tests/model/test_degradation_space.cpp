#include "corun/core/model/degradation_space.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "corun/common/task_pool.hpp"
#include "corun/sim/machine.hpp"

namespace corun::model {
namespace {

// Characterization is the expensive offline stage; run it once per suite.
class DegradationSpaceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const DegradationSpaceBuilder builder(sim::ivy_bridge());
    grid_ = new DegradationGrid(builder.characterize());
  }
  static void TearDownTestSuite() {
    delete grid_;
    grid_ = nullptr;
  }
  static DegradationGrid* grid_;
};

DegradationGrid* DegradationSpaceTest::grid_ = nullptr;

TEST_F(DegradationSpaceTest, GridIsElevenByEleven) {
  ASSERT_TRUE(grid_->valid());
  EXPECT_EQ(grid_->cpu_axis.size(), 11u);
  EXPECT_EQ(grid_->gpu_axis.size(), 11u);
}

TEST_F(DegradationSpaceTest, CornerDegradationsMatchPaperBands) {
  // Paper (Figs. 5-6): largest CPU degradation ~65%, largest GPU ~45%.
  EXPECT_NEAR(grid_->max_cpu_degradation(), 0.65, 0.10);
  EXPECT_NEAR(grid_->max_gpu_degradation(), 0.45, 0.10);
  EXPECT_GT(grid_->max_cpu_degradation(), grid_->max_gpu_degradation());
}

TEST_F(DegradationSpaceTest, ZeroDemandMeansZeroDegradation) {
  // First row/column: a pure-compute micro neither suffers nor inflicts.
  for (std::size_t j = 0; j < grid_->gpu_axis.size(); ++j) {
    EXPECT_NEAR(grid_->cpu_deg[0][j], 0.0, 0.01);  // CPU side at 0 GB/s
  }
  for (std::size_t i = 0; i < grid_->cpu_axis.size(); ++i) {
    EXPECT_NEAR(grid_->gpu_deg[i][0], 0.0, 0.01);  // GPU side at 0 GB/s
    EXPECT_NEAR(grid_->cpu_deg[i][0], 0.0, 0.01);  // no GPU traffic
  }
}

TEST_F(DegradationSpaceTest, DegradationGrowsWithPartnerDemand) {
  // Along the top CPU row, more GPU traffic hurts more (paper: "higher
  // throughput executions ... lead to more serious degradation").
  const std::size_t top = grid_->cpu_axis.size() - 1;
  for (std::size_t j = 1; j < grid_->gpu_axis.size(); ++j) {
    EXPECT_GE(grid_->cpu_deg[top][j], grid_->cpu_deg[top][j - 1] - 0.02);
  }
  EXPECT_GT(grid_->cpu_deg[top].back(), grid_->cpu_deg[top][3]);
}

TEST_F(DegradationSpaceTest, CpuMostlyMildGpuBroadlyHit) {
  // Paper: CPU suffers <= 20% in about half the cases; GPU sees 20-40%
  // over much of the space.
  int cpu_mild = 0;
  int gpu_hit = 0;
  int cells = 0;
  for (std::size_t i = 0; i < grid_->cpu_axis.size(); ++i) {
    for (std::size_t j = 0; j < grid_->gpu_axis.size(); ++j) {
      ++cells;
      if (grid_->cpu_deg[i][j] <= 0.20) ++cpu_mild;
      if (grid_->gpu_deg[i][j] >= 0.15) ++gpu_hit;
    }
  }
  EXPECT_GT(cpu_mild, cells / 2);
  EXPECT_GT(gpu_hit, cells / 5);
}

TEST_F(DegradationSpaceTest, CpuCollapsesOnlyAtHighJointDemand) {
  // The >8.5 GB/s corner effect: the worst CPU degradations live where both
  // demands are high.
  const std::size_t hi = grid_->cpu_axis.size() - 1;
  const std::size_t mid = grid_->cpu_axis.size() / 2;
  EXPECT_GT(grid_->cpu_deg[hi][hi], 2.0 * grid_->cpu_deg[mid][mid]);
}

TEST_F(DegradationSpaceTest, CsvRoundTrip) {
  std::ostringstream oss;
  grid_->write_csv(oss);
  const auto parsed = DegradationGrid::read_csv(oss.str());
  ASSERT_TRUE(parsed.has_value());
  const DegradationGrid& round = parsed.value();
  ASSERT_TRUE(round.valid());
  EXPECT_EQ(round.cpu_axis, grid_->cpu_axis);
  EXPECT_EQ(round.gpu_axis, grid_->gpu_axis);
  EXPECT_EQ(round.cpu_deg, grid_->cpu_deg);
  EXPECT_EQ(round.gpu_deg, grid_->gpu_deg);
}

TEST(DegradationGrid, CsvRoundTripIsExact) {
  // 1.1 * 3 is 3.3000000000000003, the characterizer's fourth axis point;
  // six decimals would read it back as 3.3, a different grid.
  const double third = 1.0 / 3.0;
  DegradationGrid g;
  g.cpu_axis = {0.0, 1.1, 1.1 * 3.0};
  g.gpu_axis = {0.0, 1.1 * 3.0};
  g.cpu_deg = {{0.0, third}, {1e-7, 2.0 * third}, {third / 7.0, 0.6875}};
  g.gpu_deg = {{0.0, 1e-300}, {third, 0.1 + 0.2}, {5.0 * third, 1.0}};
  ASSERT_TRUE(g.valid());
  std::ostringstream oss;
  g.write_csv(oss);
  const auto parsed = DegradationGrid::read_csv(oss.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed.value().cpu_axis, g.cpu_axis);
  EXPECT_EQ(parsed.value().gpu_axis, g.gpu_axis);
  EXPECT_EQ(parsed.value().cpu_deg, g.cpu_deg);
  EXPECT_EQ(parsed.value().gpu_deg, g.gpu_deg);
}

TEST(DegradationGrid, MalformedCsvRejected) {
  EXPECT_FALSE(DegradationGrid::read_csv("cpu_bw,gpu_bw,cpu_deg\n").has_value());
  EXPECT_FALSE(DegradationGrid::read_csv("").has_value());
  ASSERT_TRUE(DegradationGrid::read_csv("cpu_bw,gpu_bw,cpu_deg,gpu_deg\n"
                                        "0,0,0.5,0.25\n")
                  .has_value());
  for (const char* text : {
           "cpu_bw,gpu_bw,cpu_deg,gpu_deg\n0,0,nan,0.25\n",
           "cpu_bw,gpu_bw,cpu_deg,gpu_deg\n0,0,0.5,inf\n",
           "cpu_bw,gpu_bw,cpu_deg,gpu_deg\n0,0x,0.5,0.25\n",
           "0,0,0.5,0.25\n1,0,0.5,0.25\n",  // no header row
       }) {
    const auto grid = DegradationGrid::read_csv(text);
    ASSERT_FALSE(grid.has_value()) << text;
    EXPECT_EQ(grid.error().category, ErrorCategory::kParse) << text;
  }
}

TEST(DegradationGrid, ValidityChecks) {
  DegradationGrid g;
  EXPECT_FALSE(g.valid());
  g.cpu_axis = {0.0, 1.0};
  g.gpu_axis = {0.0};
  g.cpu_deg = {{0.0}, {0.1}};
  g.gpu_deg = {{0.0}, {0.1}};
  EXPECT_TRUE(g.valid());
  g.cpu_deg.pop_back();
  EXPECT_FALSE(g.valid());
}

TEST(DegradationSpaceBuilder, CustomAxesRespected) {
  const DegradationSpaceBuilder builder(sim::ivy_bridge());
  const DegradationGrid g = builder.characterize({0.0, 11.0}, {0.0, 5.5, 11.0});
  ASSERT_TRUE(g.valid());
  EXPECT_EQ(g.cpu_axis.size(), 2u);
  EXPECT_EQ(g.gpu_axis.size(), 3u);
}

TEST(DegradationSpaceBuilder, MeasureCellSymmetryOfZero) {
  const DegradationSpaceBuilder builder(sim::ivy_bridge());
  EXPECT_NEAR(builder.measure_cell(sim::DeviceKind::kCpu, 5.0, 0.0), 0.0, 0.01);
  EXPECT_NEAR(builder.measure_cell(sim::DeviceKind::kGpu, 5.0, 0.0), 0.0, 0.01);
}

TEST(DegradationSpaceBuilder, CharacterizeEqualsMeasureCellAtAnyWorkerCount) {
  // characterize() runs each subject's solo reference once per (device,
  // axis value) and shares it across that subject's cells; measure_cell
  // runs its own. Every cell must agree exactly, at one worker and at four.
  const DegradationSpaceBuilder builder(sim::ivy_bridge());
  const std::vector<GBps> cpu_axis = {0.0, 4.0, 9.5};
  const std::vector<GBps> gpu_axis = {1.5, 7.0};
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << jobs << " worker(s)");
    common::set_default_jobs(jobs);
    const DegradationGrid g = builder.characterize(cpu_axis, gpu_axis);
    ASSERT_TRUE(g.valid());
    for (std::size_t i = 0; i < cpu_axis.size(); ++i) {
      for (std::size_t j = 0; j < gpu_axis.size(); ++j) {
        EXPECT_EQ(g.cpu_deg[i][j],
                  builder.measure_cell(sim::DeviceKind::kCpu, cpu_axis[i],
                                       gpu_axis[j]))
            << "cell " << i << "," << j;
        EXPECT_EQ(g.gpu_deg[i][j],
                  builder.measure_cell(sim::DeviceKind::kGpu, gpu_axis[j],
                                       cpu_axis[i]))
            << "cell " << i << "," << j;
      }
    }
  }
  common::set_default_jobs(0);
}

}  // namespace
}  // namespace corun::model
