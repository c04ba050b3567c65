// Equivalence oracle: the event-horizon engine (EngineMode::kEvent) must
// reproduce the tick engine's trajectories exactly — finish times, telemetry
// aggregates, and every power sample — across a randomized scenario space
// covering mixed phase traces, caps on/off, windowed caps, meter noise
// on/off, oversubscribed CPUs, and staged launches. The corpus generator is
// shared with the backend suite (sim/scenario_corpus.hpp); the assertions
// live in expect_equivalent.hpp.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "corun/common/rng.hpp"
#include "corun/sim/engine.hpp"
#include "corun/sim/scenario_corpus.hpp"
#include "expect_equivalent.hpp"

namespace corun::sim {
namespace {

constexpr double kTol = kEquivTol;

class RandomWorkloadEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomWorkloadEquivalence, EventMatchesTickOracle) {
  const Scenario s = random_scenario(static_cast<std::uint64_t>(GetParam()));
  const Engine tick = execute_scenario(s, EngineMode::kTick);
  const Engine event = execute_scenario(s, EngineMode::kEvent);
  expect_equivalent(tick, event);
}

// 55 seeded scenarios spanning caps on/off, windowed enforcement, meter
// noise on/off, oversubscribed CPUs, and staged launches.
INSTANTIATE_TEST_SUITE_P(SeededScenarios, RandomWorkloadEquivalence,
                         ::testing::Range(0, 55));

// --- edge cases ---

JobSpec plain_job(Seconds t, double cf, GBps bw) {
  JobSpec spec;
  spec.name = "edge";
  spec.cpu = DeviceProfile({Phase{.dur_ref = t, .compute_frac = cf,
                                  .mem_bw = bw}});
  spec.gpu = DeviceProfile({Phase{.dur_ref = t, .compute_frac = cf,
                                  .mem_bw = bw}});
  return spec;
}

/// run_for on a machine with no jobs at all: the tick oracle still ticks
/// (idle power, sampling, governor cadence), and event mode must too.
TEST(EngineEquivalenceEdge, ZeroJobsIdleAdvance) {
  for (const bool capped : {false, true}) {
    Scenario s;
    s.options.seed = 7;
    if (capped) {
      s.options.power_cap = 12.0;
      s.options.policy = GovernorPolicy::kGpuBiased;
    }
    EngineOptions tick_opts = s.options;
    tick_opts.mode = EngineMode::kTick;
    EngineOptions event_opts = s.options;
    event_opts.mode = EngineMode::kEvent;
    Engine tick(ivy_bridge(), tick_opts);
    Engine event(ivy_bridge(), event_opts);
    tick.set_ceilings(15, 9);
    event.set_ceilings(15, 9);
    (void)tick.run_for(5.0);
    (void)event.run_for(5.0);
    expect_equivalent(tick, event);
  }
}

/// A compute-bound job at max frequency consumes exactly dt of reference
/// time per tick, so it finishes exactly on a tick boundary — the finish
/// interpolation's degenerate case.
TEST(EngineEquivalenceEdge, ExactTickBoundaryFinish) {
  Scenario s;
  s.options.seed = 11;
  s.steps.push_back(
      LaunchStep{.advance_before = 0.0,
                 .spec = plain_job(2.0, 1.0, 0.0),
                 .device = DeviceKind::kCpu});
  const Engine tick = execute_scenario(s, EngineMode::kTick);
  const Engine event = execute_scenario(s, EngineMode::kEvent);
  expect_equivalent(tick, event);
  EXPECT_NEAR(tick.stats(0).finish_time, 2.0, 1e-6);
}

/// run_until_event must surface the same completion events in both modes.
TEST(EngineEquivalenceEdge, RunUntilEventParity) {
  EngineOptions options;
  options.record_samples = false;
  options.mode = EngineMode::kTick;
  Engine tick(ivy_bridge(), options);
  options.mode = EngineMode::kEvent;
  Engine event(ivy_bridge(), options);
  for (Engine* e : {&tick, &event}) {
    e->set_ceilings(15, 9);
    e->launch(plain_job(1.5, 0.6, 4.0), DeviceKind::kCpu);
    e->launch(plain_job(3.0, 0.3, 8.0), DeviceKind::kGpu);
  }
  while (true) {
    const std::vector<JobEvent> a = tick.run_until_event();
    const std::vector<JobEvent> b = event.run_until_event();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].device, b[i].device);
      EXPECT_NEAR(a[i].finish_time, b[i].finish_time, kTol);
    }
    if (a.empty()) break;
    if (tick.idle()) break;
  }
  expect_equivalent(tick, event);
}

// --- capped windows ---
//
// The event core's capped replay runs through governor cadence points: it
// inlines each cadence step and decides it from the meter's bound on both
// governor thresholds (the cap and the cap minus the raise margin) when it
// can, valuing the reading when it cannot. These cases pin that loop to the
// tick oracle bit for bit where it has edges.

JobSpec phased_job(const char* name, std::vector<Phase> cpu,
                   std::vector<Phase> gpu) {
  JobSpec spec;
  spec.name = name;
  spec.cpu = DeviceProfile(std::move(cpu));
  spec.gpu = DeviceProfile(std::move(gpu));
  return spec;
}

void launch_pair(Engine& e) {
  e.launch(phased_job("p", {{6.0, 0.3, 9.0}, {5.0, 0.8, 3.0}, {7.0, 0.5, 6.0}},
                      {{4.0, 0.4, 10.0}, {6.0, 0.7, 4.0}}),
           DeviceKind::kCpu);
  e.launch(phased_job("q", {{8.0, 0.6, 5.0}, {4.0, 0.2, 11.0}},
                      {{4.0, 0.4, 10.0}, {9.0, 0.7, 4.0}, {4.0, 0.2, 12.0}}),
           DeviceKind::kGpu);
}

EngineOptions capped_options(Watts cap, double sigma, GovernorPolicy policy) {
  EngineOptions o;
  o.seed = 13;
  o.power_cap = cap;
  o.policy = policy;
  o.meter_noise_stddev = sigma;
  o.sample_interval = 1.0;
  o.record_samples = true;
  o.thermal = false;
  return o;
}

/// Runs `script` on a tick and an event engine built from `options`,
/// expects bit-identical trajectories and hands the event engine to
/// `inspect`.
template <typename Script, typename Inspect>
void expect_modes_identical(EngineOptions options, Script script,
                            Inspect inspect) {
  options.mode = EngineMode::kTick;
  Engine tick(ivy_bridge(), options);
  options.mode = EngineMode::kEvent;
  Engine event(ivy_bridge(), options);
  for (Engine* e : {&tick, &event}) {
    e->set_ceilings(15, 9);
    script(*e);
  }
  expect_bit_identical(tick, event);
  inspect(event);
}

const GovernorPolicy kPolicies[] = {GovernorPolicy::kGpuBiased,
                                    GovernorPolicy::kCpuBiased};

TEST(CappedWindowEquivalence, LevelMovesOnCadenceTicks) {
  // The machine boots at level 0 under a cap with room to spare, so the
  // governor raises a level at cadence tick after cadence tick, each raise
  // decided inside a replay window and ending it; once the power nears the
  // cap, cadence steps hold, lower and raise around it.
  for (const double sigma : {0.25, 2.0}) {
    for (const GovernorPolicy policy : kPolicies) {
      for (const bool thermal : {false, true}) {
        SCOPED_TRACE(testing::Message() << "sigma " << sigma << ", policy "
                                        << policy_name(policy)
                                        << ", thermal " << thermal);
        EngineOptions o = capped_options(16.0, sigma, policy);
        o.thermal = thermal;
        expect_modes_identical(
            o,
            [](Engine& e) {
              launch_pair(e);
              e.run_until_idle();
            },
            [sigma](const Engine& event) {
              // Cadence ticks are replayed: windows that stopped at every
              // cadence point (every 10th tick) would replay fewer. (At
              // 2 W of noise frequent violations end windows early.)
              if (sigma < 1.0) {
                EXPECT_GT(event.counters().replayed_ticks * 10,
                          event.counters().ticks * 9);
              }
            });
      }
    }
  }
}

TEST(CappedWindowEquivalence, RaisesDecidedAtTheLowerThreshold) {
  // Caps a quarter watt apart put some level's true power within the
  // noise of cap - 1.2, the governor's raise threshold, where the meter's
  // bound settles nothing and the cadence step values the reading; the
  // samples confirm the sweep spends time there below the ceilings.
  int near_raise_threshold = 0;
  for (double cap = 9.0; cap <= 16.0; cap += 0.25) {
    for (const double sigma : {0.25, 1.0}) {
      SCOPED_TRACE(testing::Message() << "cap " << cap << ", sigma " << sigma);
      expect_modes_identical(
          capped_options(cap, sigma, GovernorPolicy::kGpuBiased),
          [](Engine& e) {
            launch_pair(e);
            e.run_until_idle();
          },
          [&](const Engine& event) {
            for (const PowerSample& s : event.telemetry().samples()) {
              const bool below_ceiling = s.cpu_level < 15 || s.gpu_level < 9;
              if (below_ceiling &&
                  std::abs(s.true_power - (cap - 1.2)) < 2.0 * sigma) {
                ++near_raise_threshold;
              }
            }
          });
    }
  }
  EXPECT_GT(near_raise_threshold, 50);
}

TEST(CappedWindowEquivalence, WindowedCap) {
  // Under a PL1 window every reading feeds the moving average, so cadence
  // steps value the reading in full inside the window.
  for (const double cap : {12.0, 15.0}) {
    for (const double sigma : {0.25, 2.0}) {
      EngineOptions o = capped_options(cap, sigma, GovernorPolicy::kCpuBiased);
      o.cap_window = 1.0;
      expect_modes_identical(
          o,
          [](Engine& e) {
            launch_pair(e);
            e.run_until_idle();
          },
          [](const Engine& event) {
            EXPECT_GT(event.counters().replayed_ticks, 0u);
          });
    }
  }
}

TEST(CappedWindowEquivalence, DropoutStartingMidWindow) {
  // Dropouts start and end off every cadence and sample point; while one
  // lasts, cadence steps and violation tests act on the held reading.
  for (const double sigma : {0.25, 2.0}) {
    for (const GovernorPolicy policy : kPolicies) {
      expect_modes_identical(
          capped_options(13.0, sigma, policy),
          [](Engine& e) {
            launch_pair(e);
            (void)e.run_for(3.37);
            e.set_meter_dropout(true);
            (void)e.run_for(2.05);
            e.set_meter_dropout(false);
            (void)e.run_for(1.234);
            e.set_meter_dropout(true);
            (void)e.run_until_event();
            e.set_meter_dropout(false);
            e.run_until_idle();
          },
          [](const Engine& event) { EXPECT_FALSE(event.meter_dropout()); });
    }
  }
}

TEST(CappedWindowEquivalence, SetPowerCapBetweenRuns) {
  // Each cap move replaces the engine's governor; the next windows decide
  // on the new thresholds (and none at all while uncapped).
  for (const double sigma : {0.25, 2.0}) {
    expect_modes_identical(
        capped_options(14.0, sigma, GovernorPolicy::kGpuBiased),
        [](Engine& e) {
          launch_pair(e);
          (void)e.run_for(4.0);
          e.set_power_cap(11.0);
          (void)e.run_for(3.05);
          e.set_power_cap(std::nullopt);
          (void)e.run_for(2.0);
          e.set_power_cap(16.5);
          e.run_until_idle();
        },
        [](const Engine& event) {
          EXPECT_EQ(event.counters().cap_updates, 3u);
        });
  }
}

TEST(CappedWindowEquivalence, RunForEndingOnACadenceTick) {
  // Every slice ends exactly on a governor cadence point (and every other
  // one on a sample point too), so each window's end bound and the cadence
  // test meet at the same tick.
  for (const Seconds interval : {0.1, 0.3}) {
    EngineOptions o = capped_options(14.0, 0.25, GovernorPolicy::kCpuBiased);
    o.governor_interval = interval;
    o.sample_interval = 2.0 * 5.0 * interval;
    expect_modes_identical(
        o,
        [interval](Engine& e) {
          launch_pair(e);
          for (int k = 0; k < 40; ++k) (void)e.run_for(5.0 * interval);
          e.run_until_idle();
        },
        [](const Engine& event) { EXPECT_TRUE(event.idle()); });
  }
}

TEST(CappedWindowEquivalence, UnrecordedSamplePointsDoNotStopWindows) {
  // With sampling off a sample point only re-arms its cadence, so capped
  // and uncapped (thermal) windows replay through it instead of handing
  // its tick to the per-tick path. Tick and event stay bit-identical, and
  // a capped event run takes fewer per-tick steps than the same run
  // recording samples. (The meter is noise-free here, so both runs see the
  // same readings and the same trajectory; the sample stops are the only
  // difference. An uncapped window stops at every governor cadence point,
  // which every sample point here falls on, so it gains nothing. Horizons,
  // the dynamics rebuilds, are the same in all: a sample stop never
  // invalidates the cached dynamics.)
  const std::optional<Watts> caps[] = {14.0, std::nullopt};
  for (const std::optional<Watts> cap : caps) {
    for (const GovernorPolicy policy : kPolicies) {
      for (const bool thermal : {false, true}) {
        if (!cap && !thermal) continue;  // control-free: always replayed
        SCOPED_TRACE(testing::Message()
                     << "cap " << cap.value_or(0.0) << ", policy "
                     << policy_name(policy) << ", thermal " << thermal);
        EngineOptions o = capped_options(cap.value_or(14.0), 0.0, policy);
        o.power_cap = cap;
        o.thermal = thermal;
        o.record_samples = false;
        const auto script = [](Engine& e) {
          launch_pair(e);
          (void)e.run_for(3.37);
          e.run_until_idle();
        };
        std::uint64_t stepped = 0;
        std::uint64_t horizons = 0;
        expect_modes_identical(o, script, [&](const Engine& event) {
          stepped = event.counters().ticks - event.counters().replayed_ticks;
          horizons = event.counters().horizons;
        });

        o.record_samples = true;
        o.mode = EngineMode::kEvent;
        Engine sampled(ivy_bridge(), o);
        sampled.set_ceilings(15, 9);
        script(sampled);
        const std::uint64_t sampled_stepped =
            sampled.counters().ticks - sampled.counters().replayed_ticks;
        if (cap) {
          EXPECT_LT(stepped, sampled_stepped);
        } else {
          EXPECT_LE(stepped, sampled_stepped);
        }
        EXPECT_EQ(horizons, sampled.counters().horizons);
      }
    }
  }
}

}  // namespace
}  // namespace corun::sim
