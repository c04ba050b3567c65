// Shared trajectory-equality assertion for the engine/backend equivalence
// suites: finish times, telemetry aggregates, and every power sample must
// agree to kEquivTol between two runs of the same scenario script. The
// implementations replay (or closed-form) bit-identical arithmetic, so the
// 1e-9 tolerance is generous; any drift beyond it means a backend diverged
// from the oracle.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "corun/sim/engine.hpp"

namespace corun::sim {

constexpr double kEquivTol = 1e-9;

inline void expect_equivalent(const Engine& oracle, const Engine& candidate) {
  EXPECT_NEAR(oracle.now(), candidate.now(), kEquivTol);

  const std::vector<JobStats> ts = oracle.all_stats();
  const std::vector<JobStats> es = candidate.all_stats();
  ASSERT_EQ(ts.size(), es.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(ts[i].id, es[i].id);
    EXPECT_EQ(ts[i].finished, es[i].finished);
    EXPECT_NEAR(ts[i].start_time, es[i].start_time, kEquivTol);
    EXPECT_NEAR(ts[i].finish_time, es[i].finish_time, kEquivTol)
        << "job " << ts[i].name;
    EXPECT_NEAR(ts[i].total_gb, es[i].total_gb, kEquivTol)
        << "job " << ts[i].name;
  }

  const Telemetry& tt = oracle.telemetry();
  const Telemetry& et = candidate.telemetry();
  EXPECT_NEAR(tt.energy(), et.energy(), kEquivTol);
  EXPECT_NEAR(tt.elapsed(), et.elapsed(), kEquivTol);
  EXPECT_NEAR(tt.cpu_busy_time(), et.cpu_busy_time(), kEquivTol);
  EXPECT_NEAR(tt.gpu_busy_time(), et.gpu_busy_time(), kEquivTol);
  EXPECT_EQ(tt.cap_stats().samples, et.cap_stats().samples);
  EXPECT_EQ(tt.cap_stats().over_cap, et.cap_stats().over_cap);
  EXPECT_NEAR(tt.cap_stats().worst_overshoot, et.cap_stats().worst_overshoot,
              kEquivTol);
  EXPECT_NEAR(tt.cap_stats().time_over_cap, et.cap_stats().time_over_cap,
              kEquivTol);

  ASSERT_EQ(tt.samples().size(), et.samples().size());
  for (std::size_t i = 0; i < tt.samples().size(); ++i) {
    const PowerSample& a = tt.samples()[i];
    const PowerSample& b = et.samples()[i];
    EXPECT_NEAR(a.t, b.t, kEquivTol) << "sample " << i;
    EXPECT_NEAR(a.measured, b.measured, kEquivTol) << "sample " << i;
    EXPECT_NEAR(a.true_power, b.true_power, kEquivTol) << "sample " << i;
    EXPECT_EQ(a.cpu_level, b.cpu_level) << "sample " << i;
    EXPECT_EQ(a.gpu_level, b.gpu_level) << "sample " << i;
    EXPECT_NEAR(a.cpu_bw, b.cpu_bw, kEquivTol) << "sample " << i;
    EXPECT_NEAR(a.gpu_bw, b.gpu_bw, kEquivTol) << "sample " << i;
  }
}

}  // namespace corun::sim
