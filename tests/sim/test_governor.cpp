#include "corun/sim/governor.hpp"

#include <gtest/gtest.h>

#include "corun/common/check.hpp"

namespace corun::sim {
namespace {

DvfsState mid_state() {
  return DvfsState{.cpu_level = 8, .gpu_level = 5, .cpu_ceiling = 15,
                   .gpu_ceiling = 9};
}

TEST(Governor, NonePinsToCeilings) {
  const PowerGovernor g(GovernorPolicy::kNone, std::nullopt);
  DvfsState s = mid_state();
  s = g.step(100.0, s);  // measured power irrelevant
  EXPECT_EQ(s.cpu_level, 15);
  EXPECT_EQ(s.gpu_level, 9);
}

TEST(Governor, GpuBiasedLowersCpuFirstOnOvershoot) {
  const PowerGovernor g(GovernorPolicy::kGpuBiased, 15.0);
  DvfsState s = mid_state();
  s = g.step(16.0, s);
  EXPECT_EQ(s.cpu_level, 7);
  EXPECT_EQ(s.gpu_level, 5);
}

TEST(Governor, GpuBiasedLowersGpuOnlyAtCpuFloor) {
  const PowerGovernor g(GovernorPolicy::kGpuBiased, 15.0);
  DvfsState s = mid_state();
  s.cpu_level = 0;
  s = g.step(16.0, s);
  EXPECT_EQ(s.cpu_level, 0);
  EXPECT_EQ(s.gpu_level, 4);
}

TEST(Governor, CpuBiasedMirrors) {
  const PowerGovernor g(GovernorPolicy::kCpuBiased, 15.0);
  DvfsState s = mid_state();
  s = g.step(16.0, s);
  EXPECT_EQ(s.gpu_level, 4);
  EXPECT_EQ(s.cpu_level, 8);
  s.gpu_level = 0;
  s = g.step(16.0, s);
  EXPECT_EQ(s.cpu_level, 7);
}

TEST(Governor, RaisesFavouredDomainWithHeadroom) {
  const PowerGovernor g(GovernorPolicy::kGpuBiased, 15.0);
  DvfsState s = mid_state();
  s = g.step(10.0, s);  // well under cap - margin
  EXPECT_EQ(s.gpu_level, 6);
  EXPECT_EQ(s.cpu_level, 8);
  // Once the GPU reaches its ceiling, the CPU gets raised.
  s.gpu_level = s.gpu_ceiling;
  s = g.step(10.0, s);
  EXPECT_EQ(s.cpu_level, 9);
}

TEST(Governor, DeadBandHolds) {
  const PowerGovernor g(GovernorPolicy::kGpuBiased, 15.0);
  ASSERT_EQ(PowerGovernor::kRaiseMargin, 1.2);
  DvfsState s = mid_state();
  const DvfsState held = g.step(14.5, s);  // inside [cap - margin, cap]
  EXPECT_EQ(held.cpu_level, s.cpu_level);
  EXPECT_EQ(held.gpu_level, s.gpu_level);
}

TEST(Governor, NeverExceedsCeilings) {
  const PowerGovernor g(GovernorPolicy::kGpuBiased, 15.0);
  DvfsState s{.cpu_level = 12, .gpu_level = 8, .cpu_ceiling = 10,
              .gpu_ceiling = 6};
  s = g.step(10.0, s);  // headroom, but must clamp down to ceilings first
  EXPECT_LE(s.cpu_level, 10);
  EXPECT_LE(s.gpu_level, 6);
}

TEST(Governor, StepsAreBounded) {
  // One control step moves at most one level per domain.
  const PowerGovernor g(GovernorPolicy::kGpuBiased, 15.0);
  DvfsState s = mid_state();
  const DvfsState after = g.step(30.0, s);
  EXPECT_GE(after.cpu_level, s.cpu_level - 1);
}

TEST(Governor, FloorHolds) {
  const PowerGovernor g(GovernorPolicy::kGpuBiased, 15.0);
  DvfsState s{.cpu_level = 0, .gpu_level = 0, .cpu_ceiling = 15,
              .gpu_ceiling = 9};
  s = g.step(20.0, s);
  EXPECT_EQ(s.cpu_level, 0);
  EXPECT_EQ(s.gpu_level, 0);
}

TEST(Governor, InvalidCapRejected) {
  EXPECT_THROW(PowerGovernor(GovernorPolicy::kGpuBiased, -1.0),
               corun::ContractViolation);
}

TEST(Governor, PolicyNames) {
  EXPECT_STREQ(policy_name(GovernorPolicy::kNone), "none");
  EXPECT_STREQ(policy_name(GovernorPolicy::kGpuBiased), "gpu-biased");
  EXPECT_STREQ(policy_name(GovernorPolicy::kCpuBiased), "cpu-biased");
}

}  // namespace
}  // namespace corun::sim
