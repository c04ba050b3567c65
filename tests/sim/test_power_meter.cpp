// The lazy meter against eager twins: three meters on one seed run the same
// random script. `eager` is a PowerMeter read in full on every operation,
// `lazy` one used as the event cores use it (exceeds() for violation tests,
// threshold_reading() for capped cadence steps, draw() for uncapped
// cadence reads), and `reference` the meter's semantics written out
// directly on an Rng — every sample valued, the last healthy reading held
// through a dropout. Both PowerMeters draw from the block-filled
// PolarStream, the reference from Rng::gaussian one polar draw at a time,
// so the script also pins the block path to the Rng stream across a few
// thousand refills. Every decision and every computed reading must agree,
// including the readings served during a dropout.
#include "corun/sim/power_meter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "corun/common/rng.hpp"

namespace corun::sim {
namespace {

/// The sensor with nothing lazy about it: reading = max(0, P + N(0, s)).
struct ReferenceMeter {
  Rng rng;
  Watts sigma;
  bool dropout = false;
  Watts held = 0.0;

  Watts read(Watts power) {
    const Watts noisy = sigma > 0.0 ? power + rng.gaussian(sigma) : power;
    const Watts reading = std::max(0.0, noisy);
    if (dropout) return held;
    held = reading;
    return reading;
  }
};

class LazyMeterTwin : public ::testing::TestWithParam<double> {};

TEST_P(LazyMeterTwin, DecisionsAndReadingsMatchEagerReads) {
  const double sigma = GetParam();
  const Rng stream = Rng(2024).fork("power-meter");
  PowerMeter eager(stream.seed(), sigma);
  PowerMeter lazy(stream.seed(), sigma);
  ReferenceMeter reference{stream, sigma};
  Rng script(99);

  const double caps[] = {10.0, 14.0, 15.5, 20.0};
  constexpr Watts kRaiseMargin = 1.2;  // PowerGovernor::kRaiseMargin
  double cap = caps[0];
  Watts power = 12.0;
  int decisions = 0;
  int over = 0;
  int dropped_reads = 0;
  int cadence_steps = 0;
  int raises = 0;
  int stand_ins = 0;
  int dropped_steps = 0;
  long draws = 0;
  for (int op = 0; op < 300000; ++op) {
    const std::int64_t kind = script.uniform_int(0, 99);
    if (kind < 2) {
      const bool active = !eager.dropout();
      eager.set_dropout(active);
      lazy.set_dropout(active);
      reference.dropout = active;
    } else if (kind < 8) {
      // A new horizon: another cap, another true power relative to it or
      // to the raise threshold below it.
      cap = caps[script.uniform_int(0, 3)];
      const Watts edge = script.chance(0.5) ? cap : cap - kRaiseMargin;
      switch (script.uniform_int(0, 6)) {
        case 0:  // far below
          power = edge - script.uniform(2.0, 10.0);
          break;
        case 1:  // 1e-15 below
          power = edge - 1e-15;
          break;
        case 2:  // at the edge
          power = edge;
          break;
        case 3:  // an ulp below
          power = std::nextafter(edge, 0.0);
          break;
        case 4:  // an ulp above
          power = std::nextafter(edge, 100.0);
          break;
        case 5:  // above
          power = edge + script.uniform(0.0, 3.0);
          break;
        default:  // near, within a standard deviation
          power = edge + script.uniform(-1.0, 1.0) * sigma;
          break;
      }
    } else if (kind < 12) {
      // Uncapped cadence read: the governor ignores the value.
      (void)eager.read(power);
      (void)reference.read(power);
      lazy.draw(power);
      ++draws;
    } else if (kind < 16) {
      // Sample point.
      const Watts r = reference.read(power);
      ASSERT_EQ(eager.read(power), r) << "sample read at op " << op;
      ASSERT_EQ(lazy.read(power), r) << "sample read at op " << op;
      if (reference.dropout) ++dropped_reads;
      ++draws;
    } else if (kind < 28) {
      // Capped cadence step: the stand-in must fall on the reading's side
      // of both governor thresholds (held readings included).
      const Watts lo = cap - kRaiseMargin;
      const Watts r = reference.read(power);
      ASSERT_EQ(eager.read(power), r) << "cadence read at op " << op;
      const Watts seen = lazy.threshold_reading(power, lo, cap);
      ASSERT_EQ(r > cap, seen > cap) << "cadence step at op " << op
                                     << ", power " << power << ", cap " << cap;
      ASSERT_EQ(r < lo, seen < lo) << "cadence step at op " << op
                                   << ", power " << power << ", cap " << cap;
      ++cadence_steps;
      if (seen < lo) ++raises;
      if (seen != r) ++stand_ins;
      if (reference.dropout) ++dropped_steps;
      ++draws;
    } else {
      // Per-tick violation test.
      const Watts r = reference.read(power);
      ASSERT_EQ(eager.read(power), r) << "violation read at op " << op;
      const bool l = lazy.exceeds(power, cap);
      ASSERT_EQ(r > cap, l) << "violation test at op " << op << ", power "
                            << power << ", cap " << cap;
      ++decisions;
      if (l) ++over;
      ++draws;
    }
    ASSERT_EQ(eager.reading(), lazy.reading()) << "reading after op " << op;
  }
  // The script exercised both outcomes, raises and stand-ins, and the
  // dropout path, over many block refills (at most 156 draws per block).
  EXPECT_GT(over, 1000);
  EXPECT_GT(decisions - over, 1000);
  EXPECT_GT(dropped_reads, 100);
  EXPECT_GT(cadence_steps, 10000);
  EXPECT_GT(raises, 1000);
  EXPECT_GT(dropped_steps, 100);
  if (sigma > 0.0) {
    EXPECT_GT(stand_ins, 1000);
  }
  EXPECT_GT(draws, 1000 * 156);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, LazyMeterTwin,
                         ::testing::Values(0.25, 2.0, 0.0));

TEST(PowerMeter, SettlingBoundHoldsAtTheWorstCaseDraw) {
  // The bound is tight only for draws with x = 0, where |noise| reaches
  // sigma * sqrt(-2 ln r2). Synthesize such draws and put the cap an ulp,
  // 1e-8 W and 1e-4 W either side of the computed reading: wherever the
  // bound settles the test, its answer must be the exact one.
  Rng rng(31);
  int settled = 0;
  for (int i = 0; i < 200000; ++i) {
    const double sigma = i % 2 == 0 ? 0.25 : 2.0;
    const double y = rng.uniform(-1.0, 1.0);
    const Rng::PolarDraw d{y, y * y};
    if (d.r2 == 0.0) continue;
    const Watts power = i % 3 == 0 ? 0.0 : rng.uniform(0.0, 20.0);
    const Watts reading = std::max(0.0, power + Rng::polar_value(d, sigma));
    for (const Watts cap :
         {std::nextafter(reading, 0.0), reading, std::nextafter(reading, 100.0),
          reading - 1e-8, reading + 1e-8, reading - 1e-4, reading + 1e-4}) {
      if (!(cap > 0.0)) continue;
      if (d.r2 > PowerMeter::settling_r2(power, cap, sigma)) {
        ++settled;
        ASSERT_EQ(power > cap, reading > cap)
            << "power " << power << ", cap " << cap << ", y " << y;
      }
    }
  }
  EXPECT_GT(settled, 1000);
}

TEST(PowerMeter, SettlingBoundDecidesNothingAtTheCap) {
  // No polar draw has r2 > 1, so a threshold of 1 or more decides nothing.
  EXPECT_GE(PowerMeter::settling_r2(14.0, 14.0, 0.25), 1.0);
  EXPECT_GE(PowerMeter::settling_r2(14.0 - 1e-15, 14.0, 0.25), 1.0);
  EXPECT_GE(PowerMeter::settling_r2(5.0, 0.0, 0.25), 1.0);
  EXPECT_LT(PowerMeter::settling_r2(13.0, 14.0, 0.25), 1e-3);
  EXPECT_LT(PowerMeter::settling_r2(15.0, 14.0, 0.25), 1e-3);
}

TEST(PowerMeter, FreshMeterDrawsRngStreamFromItsFirstSample) {
  // The stream is seeded by its first refill. A meter whose first read is
  // healthy reads Rng(seed)'s sequence from its first draw; one whose first
  // read is dropped out (holding 0 W) reads it from the second.
  for (const std::uint64_t seed : {1u, 77u, 123456789u}) {
    PowerMeter fresh(seed, 0.25);
    PowerMeter held(seed, 0.25);
    held.set_dropout(true);
    EXPECT_EQ(held.read(12.0), 0.0);
    held.set_dropout(false);
    Rng fresh_ref(seed);
    Rng held_ref(seed);
    (void)held_ref.gaussian(0.25);  // the draw the dropped-out read took
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(fresh.read(12.0),
                std::max(0.0, 12.0 + fresh_ref.gaussian(0.25)))
          << "seed " << seed << ", read " << i;
      ASSERT_EQ(held.read(12.0), std::max(0.0, 12.0 + held_ref.gaussian(0.25)))
          << "seed " << seed << ", read " << i;
    }
  }
}

TEST(PowerMeter, DropoutBeforeAnyReadingHoldsZero) {
  PowerMeter meter(5, 0.25);
  meter.set_dropout(true);
  EXPECT_EQ(meter.read(12.0), 0.0);
  EXPECT_FALSE(meter.exceeds(12.0, 10.0));
  meter.set_dropout(false);
  EXPECT_GT(meter.read(12.0), 0.0);
}

TEST(PowerMeter, DropoutHoldsTheLastHealthyReadingAcrossToggles) {
  PowerMeter meter(6, 0.25);
  const Watts healthy = meter.read(12.0);
  meter.set_dropout(true);
  (void)meter.read(3.0);
  meter.set_dropout(false);
  meter.set_dropout(true);  // no healthy draw since: still the old reading
  EXPECT_EQ(meter.reading(), healthy);
  EXPECT_EQ(meter.read(20.0), healthy);
}

TEST(PowerMeter, NoiselessReadingsClampAtZero) {
  PowerMeter meter(7, 0.0);
  EXPECT_EQ(meter.read(13.5), 13.5);
  EXPECT_EQ(meter.read(-1.0), 0.0);
  EXPECT_TRUE(meter.exceeds(13.5, 13.0));
  EXPECT_FALSE(meter.exceeds(13.0, 13.0));
}

}  // namespace
}  // namespace corun::sim
