// Calibration tests: assert the simulator reproduces the quantitative
// shapes the paper reports (DESIGN.md Sec. 5 targets). These are the
// contract between the substrate and the experiments built on it.
#include <gtest/gtest.h>

#include "corun/core/model/degradation_space.hpp"
#include "corun/sim/backend.hpp"
#include "corun/workload/microbench.hpp"
#include "corun/workload/rodinia.hpp"

namespace corun {
namespace {

class CalibrationTest : public ::testing::Test {
 protected:
  sim::MachineConfig config_ = sim::ivy_bridge();
};

TEST_F(CalibrationTest, TableOneStandaloneTimesReproduced) {
  for (const auto& desc : workload::rodinia_suite()) {
    const sim::JobSpec spec = workload::make_job_spec(desc, 42);
    const auto cpu = sim::run_standalone(config_, spec, sim::DeviceKind::kCpu,
                                         15, 9);
    const auto gpu = sim::run_standalone(config_, spec, sim::DeviceKind::kGpu,
                                         15, 9);
    EXPECT_NEAR(cpu.time / desc.cpu.base_time, 1.0, 0.02) << desc.name;
    EXPECT_NEAR(gpu.time / desc.gpu.base_time, 1.0, 0.02) << desc.name;
  }
}

TEST_F(CalibrationTest, DegradationCornersMatchFigures5And6) {
  const model::DegradationSpaceBuilder builder(config_);
  // (11, 11) corner: CPU ~65%, GPU ~45% (paper's largest degradations).
  const double cpu_corner =
      builder.measure_cell(sim::DeviceKind::kCpu, 11.0, 11.0);
  const double gpu_corner =
      builder.measure_cell(sim::DeviceKind::kGpu, 11.0, 11.0);
  EXPECT_NEAR(cpu_corner, 0.65, 0.10);
  EXPECT_NEAR(gpu_corner, 0.45, 0.10);
  EXPECT_GT(cpu_corner, gpu_corner);
}

TEST_F(CalibrationTest, CpuSpikesOnlyWhenBothDemandsHigh) {
  // Paper: "the CPU shows much more serious slowdown than the GPU when both
  // co-runners have a high memory demand (over 8.5 GB/s)".
  const model::DegradationSpaceBuilder builder(config_);
  const double both_high = builder.measure_cell(sim::DeviceKind::kCpu, 9.9, 9.9);
  const double mid = builder.measure_cell(sim::DeviceKind::kCpu, 5.5, 5.5);
  EXPECT_GT(both_high, 2.5 * mid);
  const double gpu_both_high =
      builder.measure_cell(sim::DeviceKind::kGpu, 9.9, 9.9);
  EXPECT_GT(both_high, gpu_both_high);
}

TEST_F(CalibrationTest, PowerEnvelopeForcesDvfsTradeoffs) {
  // A 15 W cap must exclude max-frequency operation (otherwise the paper's
  // frequency dimension would be vacuous) but admit low-frequency points.
  const auto micro = workload::micro_kernel(0.0, 5.0).value();
  const sim::JobSpec spec = workload::make_job_spec(micro, 1);
  const auto max_run =
      sim::run_standalone(config_, spec, sim::DeviceKind::kCpu, 15, 0);
  EXPECT_GT(max_run.avg_power, 15.0);
  const auto low_run =
      sim::run_standalone(config_, spec, sim::DeviceKind::kCpu, 0, 0);
  EXPECT_LT(low_run.avg_power, 12.0);
}

TEST_F(CalibrationTest, MotivationPairContrast) {
  // Sec. III: dwt2d suffers far more next to streamcluster than next to
  // hotspot (paper: 81% vs 17%; our simulator preserves the contrast).
  auto dwt_degradation_against = [&](const char* partner) {
    const auto dwt = workload::rodinia_by_name("dwt2d").value();
    const auto other = workload::rodinia_by_name(partner).value();
    const sim::JobSpec dwt_spec = workload::make_job_spec(dwt, 42);
    const sim::JobSpec other_spec = workload::make_job_spec(other, 43);
    const auto solo = sim::run_standalone(config_, dwt_spec,
                                          sim::DeviceKind::kCpu, 15, 9);
    sim::EngineOptions eo;
    eo.record_samples = false;
    sim::Engine engine(config_, eo);
    engine.set_ceilings(15, 9);
    const sim::JobId id = engine.launch(dwt_spec, sim::DeviceKind::kCpu);
    engine.launch(other_spec, sim::DeviceKind::kGpu);
    while (!engine.stats(id).finished) engine.run_until_event();
    return (engine.stats(id).runtime() - solo.time) / solo.time;
  };
  const double vs_streamcluster = dwt_degradation_against("streamcluster");
  const double vs_hotspot = dwt_degradation_against("hotspot");
  EXPECT_GT(vs_streamcluster, 2.5 * vs_hotspot);
  EXPECT_GT(vs_streamcluster, 0.35);  // paper: 81%; simulator: ~66%
  EXPECT_LT(vs_hotspot, 0.25);        // paper: 17%; simulator: ~15%
}

TEST_F(CalibrationTest, MicroGridAxesAreTruthful) {
  // Spot-check beyond the unit tests: co-run axes equal standalone rates.
  for (const double target : {3.3, 7.7}) {
    const auto desc = workload::micro_kernel(target).value();
    EXPECT_NEAR(workload::measure_micro_bandwidth(config_, desc,
                                                  sim::DeviceKind::kCpu),
                target, 0.1);
  }
}

}  // namespace
}  // namespace corun
