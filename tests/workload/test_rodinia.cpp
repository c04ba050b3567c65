#include "corun/workload/rodinia.hpp"

#include <gtest/gtest.h>

#include "corun/sim/backend.hpp"
#include "corun/sim/machine.hpp"
#include "corun/workload/batch.hpp"

namespace corun::workload {
namespace {

TEST(Rodinia, SuiteHasTheEightPaperPrograms) {
  const auto suite = rodinia_suite();
  ASSERT_EQ(suite.size(), 8u);
  const std::vector<std::string> expected{
      "streamcluster", "cfd", "dwt2d", "hotspot",
      "srad", "lud", "leukocyte", "heartwall"};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(suite[i].name, expected[i]);
  }
}

TEST(Rodinia, TableOneStandaloneTimes) {
  // Calibration targets from Table I of the paper (seconds at max freq).
  struct Row {
    const char* name;
    double cpu;
    double gpu;
  };
  const Row rows[] = {{"streamcluster", 59.71, 23.72}, {"cfd", 49.69, 26.32},
                      {"dwt2d", 24.37, 61.66},        {"hotspot", 70.24, 28.52},
                      {"srad", 51.39, 23.71},          {"lud", 27.76, 24.83},
                      {"leukocyte", 50.88, 23.08},     {"heartwall", 54.68, 22.99}};
  for (const Row& row : rows) {
    const auto desc = rodinia_by_name(row.name);
    ASSERT_TRUE(desc.has_value()) << row.name;
    EXPECT_DOUBLE_EQ(desc->cpu.base_time, row.cpu);
    EXPECT_DOUBLE_EQ(desc->gpu.base_time, row.gpu);
  }
}

TEST(Rodinia, SimulatedTimesMatchDescriptors) {
  // The lowered job must reproduce the descriptor's standalone time on the
  // simulator at max frequency (Table I is a measurement, not a constant).
  const sim::MachineConfig config = sim::ivy_bridge();
  for (const auto& desc : rodinia_suite()) {
    const sim::JobSpec spec = make_job_spec(desc, 42);
    const auto cpu = sim::run_standalone(config, spec, sim::DeviceKind::kCpu,
                                         15, 9);
    EXPECT_NEAR(cpu.time, desc.cpu.base_time, desc.cpu.base_time * 0.01)
        << desc.name;
    const auto gpu = sim::run_standalone(config, spec, sim::DeviceKind::kGpu,
                                         15, 9);
    EXPECT_NEAR(gpu.time, desc.gpu.base_time, desc.gpu.base_time * 0.01)
        << desc.name;
  }
}

TEST(Rodinia, PreferenceStructureMatchesPaper) {
  // dwt2d is the only CPU-preferred program, lud the only non-preferred one
  // (threshold 20%), the rest prefer the GPU — Table I's last row.
  for (const auto& desc : rodinia_suite()) {
    const double t_cpu = desc.cpu.base_time;
    const double t_gpu = desc.gpu.base_time;
    const double diff = std::abs(t_cpu - t_gpu) / std::max(t_cpu, t_gpu);
    if (desc.name == "dwt2d") {
      EXPECT_GT(diff, 0.2);
      EXPECT_LT(t_cpu, t_gpu);
    } else if (desc.name == "lud") {
      EXPECT_LE(diff, 0.2);
    } else {
      EXPECT_GT(diff, 0.2) << desc.name;
      EXPECT_LT(t_gpu, t_cpu) << desc.name;
    }
  }
}

TEST(Rodinia, MemoryCharactersSpanTheSpectrum) {
  // The suite must cover both compute- and memory-intensive workloads
  // (Sec. VI "Benchmarks") for the co-run study to be meaningful.
  const auto suite = rodinia_suite();
  double min_demand = 1e9;
  double max_demand = 0.0;
  for (const auto& desc : suite) {
    const double demand = (1.0 - desc.cpu.compute_frac) * desc.cpu.mem_bw;
    min_demand = std::min(min_demand, demand);
    max_demand = std::max(max_demand, demand);
  }
  EXPECT_LT(min_demand, 1.0);  // leukocyte-like compute-bound
  EXPECT_GT(max_demand, 5.0);  // streamcluster-like memory-bound
}

TEST(Rodinia, MotivationSubset) {
  const auto four = rodinia_motivation_four();
  ASSERT_EQ(four.size(), 4u);
  EXPECT_EQ(four[0].name, "streamcluster");
  EXPECT_EQ(four[2].name, "dwt2d");
}

TEST(Rodinia, UnknownNameIsNull) {
  EXPECT_FALSE(rodinia_by_name("no_such_program").has_value());
}

TEST(Rodinia, ExtendedCatalogue) {
  const auto extended = rodinia_extended();
  EXPECT_EQ(extended.size(), 8u);
  EXPECT_EQ(rodinia_all().size(), 16u);
  // Extended programs resolve by name too.
  EXPECT_TRUE(rodinia_by_name("backprop").has_value());
  EXPECT_TRUE(rodinia_by_name("b+tree").has_value());
  // Every extended program has sane, complete characters.
  for (const auto& desc : extended) {
    EXPECT_GT(desc.cpu.base_time, 15.0) << desc.name;
    EXPECT_GT(desc.gpu.base_time, 15.0) << desc.name;
    EXPECT_GT(desc.cpu.mem_bw, 0.0) << desc.name;
    EXPECT_GE(desc.cpu.llc_sensitivity, desc.gpu.llc_sensitivity) << desc.name;
  }
}

TEST(Rodinia, BatchNScalesAndStaysUnique) {
  const Batch batch = make_batch_n(24, 42);
  ASSERT_EQ(batch.size(), 24u);
  // 16-program catalogue: the second round repeats programs at a smaller
  // input scale under distinct instance names (validated by Batch::add).
  EXPECT_EQ(batch.job(0).instance_name, "streamcluster#0");
  EXPECT_EQ(batch.job(16).instance_name, "streamcluster#1");
  EXPECT_LT(batch.job(16).descriptor.input_scale,
            batch.job(0).descriptor.input_scale);
}

TEST(Rodinia, Figure2SpeedupsRoughlyMatch) {
  // Sec. III: streamcluster 2.5x, cfd 1.8x, hotspot 2.4x faster on GPU;
  // dwt2d 2.5x faster on CPU.
  const auto sc = rodinia_by_name("streamcluster").value();
  EXPECT_NEAR(sc.cpu.base_time / sc.gpu.base_time, 2.5, 0.3);
  const auto cfd = rodinia_by_name("cfd").value();
  EXPECT_NEAR(cfd.cpu.base_time / cfd.gpu.base_time, 1.8, 0.3);
  const auto hs = rodinia_by_name("hotspot").value();
  EXPECT_NEAR(hs.cpu.base_time / hs.gpu.base_time, 2.4, 0.3);
  const auto dwt = rodinia_by_name("dwt2d").value();
  EXPECT_NEAR(dwt.gpu.base_time / dwt.cpu.base_time, 2.5, 0.3);
}

}  // namespace
}  // namespace corun::workload
