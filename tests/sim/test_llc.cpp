// Tests for the shared-LLC contention channel — the second interference
// mechanism of the integrated chip, and deliberately the one the paper's
// bandwidth-only model cannot see (DESIGN.md Sec. 4.1).
#include <gtest/gtest.h>

#include "corun/sim/backend.hpp"
#include "corun/sim/machine.hpp"

namespace corun::sim {
namespace {

JobSpec job_with_llc(const std::string& name, Seconds t, double cf, GBps bw,
                     double footprint, double sensitivity) {
  JobSpec spec;
  spec.name = name;
  const LlcBehavior llc{.footprint_mb = footprint, .sensitivity = sensitivity};
  spec.cpu = DeviceProfile({Phase{.dur_ref = t, .compute_frac = cf, .mem_bw = bw}}, llc);
  spec.gpu = DeviceProfile({Phase{.dur_ref = t, .compute_frac = cf, .mem_bw = bw}}, llc);
  return spec;
}

class LlcTest : public ::testing::Test {
 protected:
  MachineConfig config_ = ivy_bridge();
  EngineOptions options_;
  void SetUp() override { options_.record_samples = false; }

  Seconds corun_time(const JobSpec& subject, const JobSpec& partner) {
    Engine engine(config_, options_);
    const JobId id = engine.launch(subject, DeviceKind::kCpu);
    engine.launch(partner, DeviceKind::kGpu);
    while (!engine.stats(id).finished) (void)engine.run_until_event();
    return engine.stats(id).runtime();
  }
};

TEST_F(LlcTest, StandaloneUnaffected) {
  const JobSpec sensitive = job_with_llc("s", 10.0, 0.3, 8.0, 3.0, 0.8);
  const StandaloneResult r =
      run_standalone(config_, sensitive, DeviceKind::kCpu, 15, 9);
  EXPECT_NEAR(r.time, 10.0, 0.05);  // no partner, no eviction
}

TEST_F(LlcTest, SensitiveVictimSuffersMoreThanInsensitive) {
  const JobSpec hog = job_with_llc("hog", 60.0, 0.2, 9.0, 3.5, 0.0);
  const JobSpec sensitive = job_with_llc("sv", 10.0, 0.4, 6.0, 1.0, 0.8);
  const JobSpec insensitive = job_with_llc("iv", 10.0, 0.4, 6.0, 1.0, 0.0);
  const Seconds t_sensitive = corun_time(sensitive, hog);
  const Seconds t_insensitive = corun_time(insensitive, hog);
  EXPECT_GT(t_sensitive, t_insensitive * 1.15);
}

TEST_F(LlcTest, BiggerPartnerFootprintHurtsMore) {
  const JobSpec victim = job_with_llc("v", 10.0, 0.4, 6.0, 1.0, 0.8);
  const JobSpec big = job_with_llc("big", 60.0, 0.2, 9.0, 4.0, 0.0);
  const JobSpec small = job_with_llc("small", 60.0, 0.2, 9.0, 0.5, 0.0);
  EXPECT_GT(corun_time(victim, big), corun_time(victim, small) * 1.1);
}

TEST_F(LlcTest, QuietPartnerExertsNoPressure) {
  // Pressure scales with the partner's streaming rate: a compute-bound
  // partner with a big footprint barely evicts anything per unit time.
  const JobSpec victim = job_with_llc("v", 10.0, 0.4, 6.0, 1.0, 0.8);
  const JobSpec loud = job_with_llc("loud", 60.0, 0.2, 9.0, 4.0, 0.0);
  const JobSpec quiet = job_with_llc("quiet", 60.0, 0.98, 6.0, 4.0, 0.0);
  EXPECT_GT(corun_time(victim, loud), corun_time(victim, quiet) * 1.15);
}

TEST_F(LlcTest, ComputeBoundVictimImmune) {
  // With no memory phases there is nothing for eviction to stretch.
  const JobSpec hog = job_with_llc("hog", 60.0, 0.1, 10.0, 4.0, 0.0);
  const JobSpec compute = job_with_llc("c", 10.0, 1.0, 0.0, 0.5, 0.9);
  EXPECT_NEAR(corun_time(compute, hog), 10.0, 0.1);
}

TEST_F(LlcTest, PressureSaturatesAtCapacity) {
  // Footprints beyond the LLC capacity do not add further eviction.
  const JobSpec victim = job_with_llc("v", 10.0, 0.4, 6.0, 1.0, 0.8);
  JobSpec at_capacity = job_with_llc("cap", 60.0, 0.2, 9.0,
                                     config_.llc_capacity_mb, 0.0);
  JobSpec beyond = job_with_llc("beyond", 60.0, 0.2, 9.0,
                                config_.llc_capacity_mb * 3.0, 0.0);
  EXPECT_NEAR(corun_time(victim, at_capacity), corun_time(victim, beyond),
              0.1);
}

TEST_F(LlcTest, InvalidBehaviourRejected) {
  EXPECT_THROW(DeviceProfile({Phase{.dur_ref = 1.0, .compute_frac = 0.5,
                                    .mem_bw = 1.0}},
                             LlcBehavior{.footprint_mb = -1.0}),
               corun::ContractViolation);
  EXPECT_THROW(DeviceProfile({Phase{.dur_ref = 1.0, .compute_frac = 0.5,
                                    .mem_bw = 1.0}},
                             LlcBehavior{.sensitivity = -0.1}),
               corun::ContractViolation);
}

TEST_F(LlcTest, ChannelIsInvisibleToTheBandwidthModel) {
  // Two victims with identical bandwidth behaviour but different cache
  // sensitivity: the ground truth separates them, while any bandwidth-only
  // prediction necessarily gives both the same number — this gap IS the
  // Fig. 7 model error by construction.
  const JobSpec hog = job_with_llc("hog", 60.0, 0.2, 9.0, 3.5, 0.0);
  const JobSpec a = job_with_llc("a", 10.0, 0.4, 6.0, 1.0, 0.0);
  const JobSpec b = job_with_llc("b", 10.0, 0.4, 6.0, 1.0, 0.9);
  const StandaloneResult sa = run_standalone(config_, a, DeviceKind::kCpu, 15, 9);
  const StandaloneResult sb = run_standalone(config_, b, DeviceKind::kCpu, 15, 9);
  // Identical standalone observables (what the profiler feeds the model)...
  EXPECT_NEAR(sa.time, sb.time, 0.02);
  EXPECT_NEAR(sa.avg_bandwidth, sb.avg_bandwidth, 0.02);
  // ...but different contended reality.
  EXPECT_GT(corun_time(b, hog), corun_time(a, hog) * 1.2);
}

}  // namespace
}  // namespace corun::sim
