// Cross-machine configuration tests: the AMD-Kaveri-class platform must be
// internally consistent and preserve the qualitative co-run physics the
// paper reports for "both Intel and AMD".
#include <gtest/gtest.h>

#include "corun/sim/backend.hpp"
#include "corun/sim/machine.hpp"
#include "corun/workload/microbench.hpp"

namespace corun::sim {
namespace {

TEST(Machines, KaveriLaddersAndEnvelope) {
  const MachineConfig k = amd_kaveri();
  EXPECT_EQ(k.cpu_ladder.size(), 8u);
  EXPECT_DOUBLE_EQ(k.cpu_ladder.max_ghz(), 3.7);
  EXPECT_EQ(k.gpu_ladder.size(), 6u);
  EXPECT_DOUBLE_EQ(k.gpu_ladder.max_ghz(), 0.72);
  // Desktop part: much larger power envelope than the mobile Ivy Bridge.
  const PowerModel pm(k.power, k.cpu_ladder, k.gpu_ladder);
  EXPECT_GT(pm.package_power_full(k.cpu_ladder.max_level(),
                                  k.gpu_ladder.max_level()),
            50.0);
}

TEST(Machines, KaveriMicroCalibrationStillTruthful) {
  // The micro-benchmark's closed-form bandwidth solver must remain exact on
  // a machine with different saturation bandwidth.
  const MachineConfig k = amd_kaveri();
  for (const double target : {3.3, 7.7, 11.0}) {
    const auto desc = workload::micro_kernel(target).value();
    EXPECT_NEAR(workload::measure_micro_bandwidth(k, desc, DeviceKind::kCpu),
                target, 0.1)
        << target;
  }
}

TEST(Machines, KaveriPreservesCoRunAsymmetry) {
  // Same qualitative physics: at the joint-high-demand corner the CPU
  // degrades more than the GPU; a quiet partner costs nothing.
  const MachineConfig k = amd_kaveri();
  auto degradation = [&](DeviceKind victim, double self_bw, double partner_bw) {
    const auto victim_desc = workload::micro_kernel(self_bw, 20.0).value();
    const auto partner_desc = workload::micro_kernel(partner_bw, 80.0).value();
    const JobSpec victim_spec = workload::make_job_spec(victim_desc, 1);
    const JobSpec partner_spec = workload::make_job_spec(partner_desc, 2);
    const auto solo = run_standalone(k, victim_spec, victim,
                                     k.cpu_ladder.max_level(),
                                     k.gpu_ladder.max_level());
    EngineOptions eo;
    eo.record_samples = false;
    Engine engine(k, eo);
    const JobId id = engine.launch(victim_spec, victim);
    engine.launch(partner_spec, other_device(victim));
    while (!engine.stats(id).finished) (void)engine.run_until_event();
    return (engine.stats(id).runtime() - solo.time) / solo.time;
  };
  const double cpu_corner = degradation(DeviceKind::kCpu, 11.0, 11.0);
  const double gpu_corner = degradation(DeviceKind::kGpu, 11.0, 11.0);
  EXPECT_GT(cpu_corner, gpu_corner);
  // Higher saturation bandwidth -> milder contention than Ivy Bridge's 65%.
  EXPECT_GT(cpu_corner, 0.05);
  EXPECT_LT(cpu_corner, 0.65);
  EXPECT_NEAR(degradation(DeviceKind::kCpu, 8.0, 0.0), 0.0, 0.01);
}

TEST(Machines, ConfigsAreIndependent) {
  // Mutating one factory result must not leak into the other (no shared
  // statics).
  MachineConfig a = ivy_bridge();
  a.memory.saturation_bw = 1.0;
  const MachineConfig b = ivy_bridge();
  EXPECT_DOUBLE_EQ(b.memory.saturation_bw, 14.0);
  EXPECT_DOUBLE_EQ(amd_kaveri().memory.saturation_bw, 18.0);
}

}  // namespace
}  // namespace corun::sim
