#include "corun/core/model/interpolator.hpp"

#include <gtest/gtest.h>

#include "corun/common/check.hpp"

namespace corun::model {
namespace {

/// Synthetic separable surface deg = 0.01 * cpu_bw * gpu_bw so bilinear
/// interpolation is exact everywhere — lets us verify the mechanics.
DegradationGrid synthetic_grid() {
  DegradationGrid g;
  g.cpu_axis = {0.0, 4.0, 8.0, 12.0};
  g.gpu_axis = {0.0, 6.0, 12.0};
  g.cpu_deg.assign(4, std::vector<double>(3, 0.0));
  g.gpu_deg.assign(4, std::vector<double>(3, 0.0));
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      g.cpu_deg[i][j] = 0.01 * g.cpu_axis[i] * g.gpu_axis[j];
      g.gpu_deg[i][j] = 0.02 * g.cpu_axis[i] + 0.005 * g.gpu_axis[j];
    }
  }
  return g;
}

TEST(StagedInterpolator, ExactAtGridPoints) {
  const StagedInterpolator interp(synthetic_grid());
  EXPECT_DOUBLE_EQ(interp.cpu_degradation(8.0, 6.0), 0.48);
  EXPECT_DOUBLE_EQ(interp.gpu_degradation(4.0, 12.0), 0.14);
}

TEST(StagedInterpolator, BilinearBetweenPoints) {
  const StagedInterpolator interp(synthetic_grid());
  // Separable bilinear function: interpolation is exact off-grid too.
  EXPECT_NEAR(interp.cpu_degradation(6.0, 3.0), 0.01 * 6.0 * 3.0, 1e-12);
  EXPECT_NEAR(interp.gpu_degradation(2.0, 9.0), 0.02 * 2.0 + 0.005 * 9.0,
              1e-12);
}

TEST(StagedInterpolator, ClampsOutOfRangeInputs) {
  const StagedInterpolator interp(synthetic_grid());
  EXPECT_DOUBLE_EQ(interp.cpu_degradation(-5.0, 6.0),
                   interp.cpu_degradation(0.0, 6.0));
  EXPECT_DOUBLE_EQ(interp.cpu_degradation(20.0, 20.0),
                   interp.cpu_degradation(12.0, 12.0));
}

TEST(StagedInterpolator, ZeroCornerIsZero) {
  const StagedInterpolator interp(synthetic_grid());
  EXPECT_DOUBLE_EQ(interp.cpu_degradation(0.0, 0.0), 0.0);
}

TEST(StagedInterpolator, SingleCellGrid) {
  DegradationGrid g;
  g.cpu_axis = {5.0};
  g.gpu_axis = {5.0};
  g.cpu_deg = {{0.3}};
  g.gpu_deg = {{0.2}};
  const StagedInterpolator interp(std::move(g));
  EXPECT_DOUBLE_EQ(interp.cpu_degradation(0.0, 100.0), 0.3);
  EXPECT_DOUBLE_EQ(interp.gpu_degradation(5.0, 5.0), 0.2);
}

TEST(StagedInterpolator, MalformedGridRejected) {
  DegradationGrid g;  // invalid: empty
  EXPECT_THROW(StagedInterpolator{std::move(g)}, corun::ContractViolation);
}

TEST(StagedInterpolator, ExactKnotHitsReturnSurfaceValues) {
  // Every knot of both axes, interior and boundary: a lookup landing
  // exactly on a knot must reproduce the stored surface value bit for bit,
  // whichever neighbouring cell the search selects.
  const DegradationGrid g = synthetic_grid();
  const StagedInterpolator interp(synthetic_grid());
  for (std::size_t i = 0; i < g.cpu_axis.size(); ++i) {
    for (std::size_t j = 0; j < g.gpu_axis.size(); ++j) {
      EXPECT_DOUBLE_EQ(interp.cpu_degradation(g.cpu_axis[i], g.gpu_axis[j]),
                       g.cpu_deg[i][j])
          << "knot (" << i << ", " << j << ")";
      EXPECT_DOUBLE_EQ(interp.gpu_degradation(g.cpu_axis[i], g.gpu_axis[j]),
                       g.gpu_deg[i][j]);
    }
  }
}

TEST(StagedInterpolator, BelowFrontAndAboveBackClampPerAxis) {
  const DegradationGrid g = synthetic_grid();
  const StagedInterpolator interp(synthetic_grid());
  // Below the front knot on one axis, interior on the other.
  EXPECT_DOUBLE_EQ(interp.cpu_degradation(-3.0, 9.0),
                   interp.cpu_degradation(g.cpu_axis.front(), 9.0));
  EXPECT_DOUBLE_EQ(interp.gpu_degradation(6.0, -1.0),
                   interp.gpu_degradation(6.0, g.gpu_axis.front()));
  // Above the back knot.
  EXPECT_DOUBLE_EQ(interp.cpu_degradation(99.0, 9.0),
                   interp.cpu_degradation(g.cpu_axis.back(), 9.0));
  EXPECT_DOUBLE_EQ(interp.gpu_degradation(6.0, 99.0),
                   interp.gpu_degradation(6.0, g.gpu_axis.back()));
}

TEST(StagedInterpolator, DuplicateKnotSelectsRightContinuousCell) {
  // Regression: the grid validator only requires sorted (not strictly
  // increasing) axes, so duplicated knots are representable — e.g. two
  // characterization rows at the same bandwidth. A lookup exactly on the
  // duplicated knot must use the rightmost duplicate's row
  // (right-continuous), not interpolate to the left duplicate.
  DegradationGrid g;
  g.cpu_axis = {0.0, 5.0, 5.0, 10.0};
  g.gpu_axis = {0.0, 1.0};
  g.cpu_deg = {{0.0, 0.0}, {0.1, 0.1}, {0.3, 0.3}, {0.5, 0.5}};
  g.gpu_deg.assign(4, std::vector<double>(2, 0.0));
  const StagedInterpolator interp(std::move(g));
  EXPECT_DOUBLE_EQ(interp.cpu_degradation(5.0, 0.0), 0.3);
  // Strictly inside the neighbouring cells the duplicate is irrelevant.
  EXPECT_NEAR(interp.cpu_degradation(2.5, 0.0), 0.05, 1e-12);
  EXPECT_NEAR(interp.cpu_degradation(7.5, 0.0), 0.4, 1e-12);
}

TEST(StagedInterpolator, DegenerateZeroSpanAxisStaysFinite) {
  // An axis made entirely of one repeated knot: every cell has zero span.
  // Lookups must clamp and stay finite — no division by the zero span.
  DegradationGrid g;
  g.cpu_axis = {5.0, 5.0};
  g.gpu_axis = {0.0, 1.0};
  g.cpu_deg = {{0.2, 0.2}, {0.4, 0.4}};
  g.gpu_deg.assign(2, std::vector<double>(2, 0.0));
  const StagedInterpolator interp(std::move(g));
  EXPECT_DOUBLE_EQ(interp.cpu_degradation(5.0, 0.5), 0.2);   // clamps to front
  EXPECT_DOUBLE_EQ(interp.cpu_degradation(4.0, 0.5), 0.2);   // below front
  EXPECT_DOUBLE_EQ(interp.cpu_degradation(6.0, 0.5), 0.4);   // above back
  EXPECT_TRUE(std::isfinite(interp.cpu_degradation(5.0, 0.0)));
}

TEST(StagedInterpolator, LocatesExactlyAcrossALargeAxis) {
  // Regression: locate() used to scan linearly from the front, making a
  // lookup near the back of a large axis thousands of times more expensive
  // than one near the front. The binary search must find the exact cell
  // anywhere on a 2^16-knot axis; its cost, front against back, is
  // CHECKed by bench/bench_axis_lookup.cpp rather than timed here, where
  // other tests share the host.
  constexpr std::size_t kKnots = 1 << 16;
  DegradationGrid g;
  g.cpu_axis.resize(kKnots);
  g.cpu_deg.resize(kKnots);
  for (std::size_t i = 0; i < kKnots; ++i) {
    g.cpu_axis[i] = static_cast<double>(i);
    g.cpu_deg[i] = {static_cast<double>(i), static_cast<double>(i)};
  }
  g.gpu_axis = {0.0, 1.0};
  g.gpu_deg.assign(kKnots, std::vector<double>(2, 0.0));
  const StagedInterpolator interp(std::move(g));

  struct Case {
    double bw;
    std::size_t lo;
    double frac;
  };
  for (const Case c : {Case{1.25, 1, 0.25}, Case{32768.5, 32768, 0.5},
                       Case{65534.75, 65534, 0.75}}) {
    const AxisPos p = interp.locate_cpu(c.bw);
    EXPECT_EQ(p.lo, c.lo) << "at " << c.bw;
    EXPECT_EQ(p.hi, c.lo + 1) << "at " << c.bw;
    EXPECT_EQ(p.frac, c.frac) << "at " << c.bw;
    // The surface is the knot index itself, so the blend is exact.
    EXPECT_EQ(interp.cpu_degradation(c.bw, 0.5), c.bw);
  }
  const AxisPos front = interp.locate_cpu(0.0);
  EXPECT_EQ(front.lo, 0u);
  EXPECT_EQ(front.hi, 0u);
  EXPECT_EQ(front.frac, 0.0);
  const AxisPos back = interp.locate_cpu(static_cast<double>(kKnots - 1));
  EXPECT_EQ(back.lo, kKnots - 1);
  EXPECT_EQ(back.hi, kKnots - 1);
  EXPECT_EQ(back.frac, 0.0);
}

TEST(StagedInterpolator, MonotoneSurfaceStaysMonotoneAlongAxes) {
  const StagedInterpolator interp(synthetic_grid());
  double prev = -1.0;
  for (double g = 0.0; g <= 12.0; g += 0.5) {
    const double d = interp.cpu_degradation(10.0, g);
    EXPECT_GE(d, prev);
    prev = d;
  }
}

}  // namespace
}  // namespace corun::model
