#include "corun/sim/engine.hpp"

#include <gtest/gtest.h>

#include "corun/common/check.hpp"
#include "corun/sim/backend.hpp"

namespace corun::sim {
namespace {

JobSpec uniform_job(const std::string& name, Seconds cpu_time, Seconds gpu_time,
                    double cf, GBps bw) {
  JobSpec spec;
  spec.name = name;
  spec.cpu = DeviceProfile({Phase{.dur_ref = cpu_time, .compute_frac = cf,
                                  .mem_bw = bw}});
  spec.gpu = DeviceProfile({Phase{.dur_ref = gpu_time, .compute_frac = cf,
                                  .mem_bw = bw}});
  return spec;
}

class EngineTest : public ::testing::Test {
 protected:
  MachineConfig config_ = ivy_bridge();
  EngineOptions options_;

  void SetUp() override { options_.record_samples = false; }
};

TEST_F(EngineTest, StandaloneTimeMatchesProfileAtMaxFreq) {
  const JobSpec job = uniform_job("j", 20.0, 10.0, 0.5, 6.0);
  const StandaloneResult cpu = run_standalone(config_, job, DeviceKind::kCpu,
                                              15, 9);
  EXPECT_NEAR(cpu.time, 20.0, 0.05);
  const StandaloneResult gpu = run_standalone(config_, job, DeviceKind::kGpu,
                                              15, 9);
  EXPECT_NEAR(gpu.time, 10.0, 0.05);
}

TEST_F(EngineTest, LowerFrequencyRunsLonger) {
  const JobSpec job = uniform_job("j", 20.0, 10.0, 0.6, 5.0);
  const StandaloneResult fast = run_standalone(config_, job, DeviceKind::kCpu,
                                               15, 0);
  const StandaloneResult slow = run_standalone(config_, job, DeviceKind::kCpu,
                                               0, 0);
  EXPECT_GT(slow.time, fast.time * 1.5);
  // Analytic cross-check against the phase model.
  const Seconds analytic =
      standalone_time(job.cpu, config_.cpu_ladder.fraction(0),
                      config_.mem_bw_freq_sensitivity);
  EXPECT_NEAR(slow.time, analytic, 0.05);
}

TEST_F(EngineTest, MeasuredBandwidthMatchesProfile) {
  const JobSpec job = uniform_job("j", 20.0, 10.0, 0.5, 8.0);
  const StandaloneResult r = run_standalone(config_, job, DeviceKind::kCpu,
                                            15, 0);
  EXPECT_NEAR(r.avg_bandwidth, 8.0 * 0.5, 0.05);  // (1-cf)*bw
}

TEST_F(EngineTest, CoRunSlowerThanStandalone) {
  const JobSpec a = uniform_job("a", 20.0, 20.0, 0.2, 9.0);
  const JobSpec b = uniform_job("b", 40.0, 40.0, 0.2, 9.0);
  Engine engine(config_, options_);
  const JobId ia = engine.launch(a, DeviceKind::kCpu);
  const JobId ib = engine.launch(b, DeviceKind::kGpu);
  engine.run_until_idle();
  EXPECT_GT(engine.stats(ia).runtime(), 20.0 * 1.05);
  EXPECT_GT(engine.stats(ib).runtime(), 40.0 * 1.05);
}

TEST_F(EngineTest, ComputeBoundJobsBarelyInterfere) {
  const JobSpec a = uniform_job("a", 20.0, 20.0, 1.0, 0.0);
  const JobSpec b = uniform_job("b", 20.0, 20.0, 1.0, 0.0);
  Engine engine(config_, options_);
  const JobId ia = engine.launch(a, DeviceKind::kCpu);
  engine.launch(b, DeviceKind::kGpu);
  engine.run_until_idle();
  EXPECT_NEAR(engine.stats(ia).runtime(), 20.0, 0.1);
}

TEST_F(EngineTest, PartialOverlapReleasesSurvivor) {
  // Short memory-hog on GPU, long job on CPU: after the hog ends, the CPU
  // job should run at standalone speed — total time well below the
  // fully-degraded bound.
  const JobSpec hog = uniform_job("hog", 10.0, 10.0, 0.1, 11.0);
  const JobSpec longj = uniform_job("long", 40.0, 40.0, 0.3, 9.0);
  Engine engine(config_, options_);
  const JobId il = engine.launch(longj, DeviceKind::kCpu);
  const JobId ih = engine.launch(hog, DeviceKind::kGpu);
  engine.run_until_idle();
  const Seconds hog_time = engine.stats(ih).runtime();
  const Seconds long_time = engine.stats(il).runtime();
  EXPECT_LT(hog_time, long_time);
  // The long job's degradation applies only during the overlap window.
  const double overall_deg = (long_time - 40.0) / 40.0;
  Engine contended(config_, options_);
  const JobId cl = contended.launch(longj, DeviceKind::kCpu);
  contended.launch(uniform_job("hog2", 200.0, 200.0, 0.1, 11.0),
                   DeviceKind::kGpu);
  while (!contended.stats(cl).finished) contended.run_until_event();
  const double full_deg = (contended.stats(cl).runtime() - 40.0) / 40.0;
  EXPECT_LT(overall_deg, full_deg * 0.75);
}

TEST_F(EngineTest, GpuAcceptsOneJobOnly) {
  const JobSpec job = uniform_job("j", 5.0, 5.0, 0.5, 2.0);
  Engine engine(config_, options_);
  engine.launch(job, DeviceKind::kGpu);
  EXPECT_THROW(engine.launch(job, DeviceKind::kGpu), corun::ContractViolation);
}

TEST_F(EngineTest, CpuOversubscriptionSlowsEveryone) {
  const JobSpec job = uniform_job("j", 10.0, 10.0, 0.7, 4.0);
  // Two jobs time-sharing take more than twice as long as one (context
  // switch + locality overheads).
  Engine engine(config_, options_);
  const JobId i1 = engine.launch(job, DeviceKind::kCpu);
  const JobId i2 = engine.launch(job, DeviceKind::kCpu);
  engine.run_until_idle();
  EXPECT_GT(engine.stats(i1).runtime(), 20.0);
  EXPECT_GT(engine.stats(i2).runtime(), 20.0);
  EXPECT_LT(engine.stats(i2).runtime(), 25.0);  // overhead is bounded
}

TEST_F(EngineTest, EventsReportFinishedJobs) {
  const JobSpec job = uniform_job("evt", 5.0, 5.0, 0.5, 2.0);
  Engine engine(config_, options_);
  const JobId id = engine.launch(job, DeviceKind::kGpu);
  const auto events = engine.run_until_event();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].id, id);
  EXPECT_EQ(events[0].name, "evt");
  EXPECT_EQ(events[0].device, DeviceKind::kGpu);
  EXPECT_NEAR(events[0].finish_time, 5.0, 0.05);
  EXPECT_TRUE(engine.idle());
}

TEST_F(EngineTest, RunForAdvancesClock) {
  Engine engine(config_, options_);
  engine.run_for(1.5);
  EXPECT_NEAR(engine.now(), 1.5, 0.011);
}

TEST_F(EngineTest, GovernorEnforcesCapDuringRun) {
  EngineOptions opt = options_;
  opt.power_cap = 15.0;
  opt.policy = GovernorPolicy::kGpuBiased;
  const JobSpec hot = uniform_job("hot", 30.0, 30.0, 1.0, 0.0);
  Engine engine(config_, opt);
  engine.set_ceilings(15, 9);
  engine.launch(hot, DeviceKind::kCpu);
  engine.launch(hot, DeviceKind::kGpu);
  engine.run_until_idle();
  // Time above cap must be a small fraction of the run (reactive governor).
  const auto& stats = engine.telemetry().cap_stats();
  EXPECT_LT(engine.telemetry().cap_stats().time_over_cap,
            engine.telemetry().elapsed() * 0.2);
  (void)stats;
  // Frequencies must have been pulled below the ceilings.
  EXPECT_LT(engine.dvfs().cpu_level, 15);
}

TEST_F(EngineTest, CeilingChangesTakeEffect) {
  const JobSpec job = uniform_job("j", 10.0, 10.0, 1.0, 0.0);
  Engine engine(config_, options_);
  engine.set_ceilings(0, 0);
  const JobId id = engine.launch(job, DeviceKind::kCpu);
  engine.run_until_idle();
  const double phi = config_.cpu_ladder.fraction(0);
  EXPECT_NEAR(engine.stats(id).runtime(), 10.0 / phi, 0.1);
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  const JobSpec a = uniform_job("a", 12.0, 12.0, 0.3, 8.0);
  const JobSpec b = uniform_job("b", 15.0, 15.0, 0.4, 7.0);
  auto run_once = [&] {
    Engine engine(config_, options_);
    const JobId ia = engine.launch(a, DeviceKind::kCpu);
    engine.launch(b, DeviceKind::kGpu);
    engine.run_until_idle();
    return engine.stats(ia).runtime();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST_F(EngineTest, LaunchWithoutProfileRejected) {
  JobSpec cpu_only;
  cpu_only.name = "cpu-only";
  cpu_only.cpu = DeviceProfile({Phase{.dur_ref = 1.0, .compute_frac = 0.5,
                                      .mem_bw = 1.0}});
  Engine engine(config_, options_);
  EXPECT_THROW(engine.launch(cpu_only, DeviceKind::kGpu),
               corun::ContractViolation);
}

TEST_F(EngineTest, StatsForUnknownJobRejected) {
  Engine engine(config_, options_);
  EXPECT_THROW((void)engine.stats(42), corun::ContractViolation);
}

TEST_F(EngineTest, EnergyAccumulates) {
  const JobSpec job = uniform_job("j", 10.0, 10.0, 0.8, 2.0);
  Engine engine(config_, options_);
  engine.launch(job, DeviceKind::kCpu);
  engine.run_until_idle();
  EXPECT_GT(engine.telemetry().energy(), 0.0);
  EXPECT_NEAR(engine.telemetry().energy(),
              engine.telemetry().avg_power() * engine.telemetry().elapsed(),
              1e-6);
}

}  // namespace
}  // namespace corun::sim
