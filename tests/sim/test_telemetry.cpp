#include "corun/sim/telemetry.hpp"

#include <gtest/gtest.h>

#include "corun/common/check.hpp"
#include "corun/common/rng.hpp"
#include "corun/sim/power_meter.hpp"

namespace corun::sim {
namespace {

TEST(Telemetry, TickAccountingIntegrates) {
  Telemetry t;
  t.record_tick(0.5, 10.0, true, false, 15.0, true);
  t.record_tick(0.5, 20.0, true, true, 15.0, true);
  EXPECT_DOUBLE_EQ(t.elapsed(), 1.0);
  EXPECT_DOUBLE_EQ(t.energy(), 15.0);
  EXPECT_DOUBLE_EQ(t.avg_power(), 15.0);
  EXPECT_DOUBLE_EQ(t.cpu_busy_time(), 1.0);
  EXPECT_DOUBLE_EQ(t.gpu_busy_time(), 0.5);
  EXPECT_DOUBLE_EQ(t.cap_stats().time_over_cap, 0.5);
}

TEST(Telemetry, SampleViolationStats) {
  Telemetry t;
  PowerSample s;
  s.true_power = 16.5;
  t.record_sample(s, 15.0, true);
  s.true_power = 14.0;
  t.record_sample(s, 15.0, true);
  EXPECT_EQ(t.cap_stats().samples, 2u);
  EXPECT_EQ(t.cap_stats().over_cap, 1u);
  EXPECT_DOUBLE_EQ(t.cap_stats().worst_overshoot, 1.5);
  EXPECT_DOUBLE_EQ(t.cap_stats().over_fraction(), 0.5);
}

TEST(Telemetry, InactiveCapIgnoresViolations) {
  Telemetry t;
  PowerSample s;
  s.true_power = 100.0;
  t.record_sample(s, 15.0, false);
  t.record_tick(1.0, 100.0, true, true, 15.0, false);
  EXPECT_EQ(t.cap_stats().over_cap, 0u);
  EXPECT_DOUBLE_EQ(t.cap_stats().time_over_cap, 0.0);
}

TEST(Telemetry, ClearResets) {
  Telemetry t;
  t.record_tick(1.0, 10.0, true, true, 15.0, true);
  t.clear();
  EXPECT_DOUBLE_EQ(t.elapsed(), 0.0);
  EXPECT_DOUBLE_EQ(t.energy(), 0.0);
  EXPECT_TRUE(t.samples().empty());
}

TEST(PowerMeter, ZeroNoiseIsExact) {
  PowerMeter meter(1, 0.0);
  EXPECT_DOUBLE_EQ(meter.read(12.34), 12.34);
}

TEST(PowerMeter, NoiseIsBoundedAndUnbiased) {
  PowerMeter meter(2, 0.25);
  double sum = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const Watts r = meter.read(10.0);
    EXPECT_GE(r, 0.0);
    sum += r;
  }
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(PowerMeter, NeverNegative) {
  PowerMeter meter(3, 5.0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(meter.read(0.1), 0.0);
  }
}

TEST(PowerMeter, NegativeStddevRejected) {
  EXPECT_THROW(PowerMeter(1, -0.1), corun::ContractViolation);
}

}  // namespace
}  // namespace corun::sim
