// Parameterized property sweeps over the engine: invariants that must hold
// at every frequency level, workload intensity and device, beyond the
// example-based tests in test_engine.cpp.
#include <gtest/gtest.h>

#include "corun/sim/backend.hpp"

namespace corun::sim {
namespace {

JobSpec job(Seconds t, double cf, GBps bw) {
  JobSpec spec;
  spec.name = "p";
  spec.cpu = DeviceProfile({Phase{.dur_ref = t, .compute_frac = cf, .mem_bw = bw}});
  spec.gpu = DeviceProfile({Phase{.dur_ref = t, .compute_frac = cf, .mem_bw = bw}});
  return spec;
}

// --- standalone time is monotone non-increasing in frequency, for every
// --- level, on both devices, across workload mixes.

class FrequencyMonotonicity
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(FrequencyMonotonicity, CpuTimesDecreaseWithLevel) {
  const auto [level, cf] = GetParam();
  if (level == 0) return;  // needs a predecessor
  const MachineConfig config = ivy_bridge();
  const JobSpec spec = job(10.0, cf, 6.0);
  const Seconds t_prev =
      run_standalone(config, spec, DeviceKind::kCpu, level - 1, 0).time;
  const Seconds t_here =
      run_standalone(config, spec, DeviceKind::kCpu, level, 0).time;
  EXPECT_LE(t_here, t_prev + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllCpuLevels, FrequencyMonotonicity,
    ::testing::Combine(::testing::Range(0, 16),
                       ::testing::Values(0.1, 0.5, 0.95)));

// --- frequency sensitivity matches the workload mix: compute-bound jobs
// --- scale ~1/f, memory-bound jobs barely move.

TEST(FrequencyScaling, ComputeBoundScalesFully) {
  const MachineConfig config = ivy_bridge();
  const JobSpec compute = job(10.0, 1.0, 0.0);
  const Seconds t_max = run_standalone(config, compute, DeviceKind::kCpu, 15, 0).time;
  const Seconds t_min = run_standalone(config, compute, DeviceKind::kCpu, 0, 0).time;
  EXPECT_NEAR(t_min / t_max, 3.6 / 1.2, 0.05);  // full 3x frequency span
}

TEST(FrequencyScaling, MemoryBoundBarelyScales) {
  const MachineConfig config = ivy_bridge();
  const JobSpec memory = job(10.0, 0.02, 11.0);
  const Seconds t_max = run_standalone(config, memory, DeviceKind::kCpu, 15, 0).time;
  const Seconds t_min = run_standalone(config, memory, DeviceKind::kCpu, 0, 0).time;
  // With issue sensitivity 0.3 the memory part stretches by at most
  // 1/(0.7 + 0.3/3) = 1.25 at the bottom of the ladder.
  EXPECT_LT(t_min / t_max, 1.35);
}

// --- co-run degradation is symmetric in roles and monotone in partner
// --- intensity across the full intensity range.

class PartnerIntensity : public ::testing::TestWithParam<double> {};

TEST_P(PartnerIntensity, MoreHungryPartnerNeverHelps) {
  const double bw = GetParam();
  const MachineConfig config = ivy_bridge();
  const JobSpec subject = job(8.0, 0.4, 7.0);
  auto contended_time = [&](GBps partner_bw) {
    EngineOptions eo;
    eo.record_samples = false;
    Engine engine(config, eo);
    const JobId id = engine.launch(subject, DeviceKind::kCpu);
    engine.launch(job(40.0, partner_bw > 0 ? 0.1 : 1.0, partner_bw),
                  DeviceKind::kGpu);
    while (!engine.stats(id).finished) (void)engine.run_until_event();
    return engine.stats(id).runtime();
  };
  EXPECT_LE(contended_time(bw * 0.5), contended_time(bw) + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Intensities, PartnerIntensity,
                         ::testing::Values(2.0, 5.0, 8.0, 11.0));

// --- energy increases with frequency for fixed work, but so does speed:
// --- race-to-idle trade-off is visible and consistent.

TEST(EnergyProperties, HigherFrequencyCostsMorePowerLessTime) {
  const MachineConfig config = ivy_bridge();
  const JobSpec spec = job(10.0, 0.8, 3.0);
  const auto slow = run_standalone(config, spec, DeviceKind::kCpu, 0, 0);
  const auto fast = run_standalone(config, spec, DeviceKind::kCpu, 15, 0);
  EXPECT_GT(fast.avg_power, slow.avg_power);
  EXPECT_LT(fast.time, slow.time);
  EXPECT_GT(fast.energy, 0.0);
  EXPECT_GT(slow.energy, 0.0);
}

// --- progress() is monotone in time and hits 1.0 at completion.

TEST(Progress, MonotoneAndComplete) {
  const MachineConfig config = ivy_bridge();
  EngineOptions eo;
  eo.record_samples = false;
  Engine engine(config, eo);
  const JobId id = engine.launch(job(10.0, 0.5, 5.0), DeviceKind::kGpu);
  double prev = 0.0;
  for (int step = 0; step < 9; ++step) {
    engine.run_for(1.0);
    if (engine.stats(id).finished) break;
    const double p = engine.progress(id);
    EXPECT_GE(p, prev - 1e-9);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
    prev = p;
  }
  engine.run_until_idle();
  EXPECT_DOUBLE_EQ(engine.progress(id), 1.0);
}

TEST(Progress, ScalesWithElapsedFraction) {
  const MachineConfig config = ivy_bridge();
  EngineOptions eo;
  eo.record_samples = false;
  Engine engine(config, eo);
  const JobId id = engine.launch(job(20.0, 0.5, 4.0), DeviceKind::kCpu);
  engine.run_for(5.0);
  EXPECT_NEAR(engine.progress(id), 0.25, 0.01);  // standalone at max freq
}

// --- oversubscription fairness: n identical CPU jobs finish together.

class Oversubscription : public ::testing::TestWithParam<int> {};

TEST_P(Oversubscription, IdenticalJobsFinishTogether) {
  const int n = GetParam();
  const MachineConfig config = ivy_bridge();
  EngineOptions eo;
  eo.record_samples = false;
  Engine engine(config, eo);
  std::vector<JobId> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(engine.launch(job(5.0, 0.6, 4.0), DeviceKind::kCpu));
  }
  engine.run_until_idle();
  Seconds first = engine.stats(ids.front()).finish_time;
  for (const JobId id : ids) {
    EXPECT_NEAR(engine.stats(id).finish_time, first, 0.05);
    // Each job takes at least n times its solo duration.
    EXPECT_GE(engine.stats(id).runtime(), 5.0 * n - 0.1);
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, Oversubscription, ::testing::Values(2, 3, 5));

}  // namespace
}  // namespace corun::sim
