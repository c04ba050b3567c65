// Fleet runtime behaviour: plan round trips, event translation, dropout
// re-division within one event horizon, and the end-to-end determinism
// contracts (thread count, plan-cache state) at fleet scale.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>

#include "corun/common/task_pool.hpp"
#include "corun/core/fleet/fleet.hpp"
#include "corun/core/runtime/experiment.hpp"
#include "corun/core/sched/plan_cache/plan_cache.hpp"
#include "corun/sim/backend.hpp"
#include "corun/sim/machine.hpp"

namespace corun::fleet {
namespace {

/// Artifacts over the fleet reference batch, built once per test binary on
/// the analytic backend (cheap, and identical for every FleetOptions
/// backend — the same pinning the corun-fleet tool uses).
const runtime::ModelArtifacts& shared_artifacts() {
  static const std::unique_ptr<runtime::ModelArtifacts> artifacts = [] {
    auto reference = make_fleet_reference_batch(default_fleet_programs());
    EXPECT_TRUE(reference.has_value());
    runtime::ArtifactOptions options;
    options.seed = 42;
    options.backend.kind = sim::BackendKind::kAnalytic;
    options.cpu_levels = {0, 5, 10};
    options.gpu_levels = {0, 3, 6};
    options.grid_axis = {0.0, 4.0, 8.0, 11.0};
    return std::make_unique<runtime::ModelArtifacts>(runtime::build_artifacts(
        sim::ivy_bridge(), reference.value(), options));
  }();
  return *artifacts;
}

FleetOptions small_options(std::size_t machines, const std::string& strategy) {
  FleetOptions o;
  o.machines = machines;
  o.global_cap = 11.0 * static_cast<double>(machines);
  o.strategy = strategy;
  o.jobs_per_machine = 2;
  o.jobs_spread = 2;
  o.backend.kind = sim::BackendKind::kAnalytic;
  return o;
}

TEST(FleetPlan, CsvRoundTripsBitForBit) {
  FleetPlan plan;
  plan.events.push_back({4.25, FleetEventKind::kDropout, -1, {}, 0, 99});
  plan.events.push_back({7.5, FleetEventKind::kGlobalCap, -1, 640.0, 0, 0});
  plan.events.push_back({7.5, FleetEventKind::kGlobalCap, -1, {}, 0, 0});
  plan.events.push_back({12.0, FleetEventKind::kWave, -1, {}, 6, 1234});
  std::ostringstream oss;
  fleet_plan_to_csv(plan, oss);
  const auto parsed = fleet_plan_from_csv(oss.str());
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  ASSERT_EQ(parsed.value().size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const FleetEvent& a = plan.events[i];
    const FleetEvent& b = parsed.value().events[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(a.cap.has_value(), b.cap.has_value());
    if (a.cap) {
      EXPECT_EQ(*a.cap, *b.cap);
    }
    EXPECT_EQ(a.jobs, b.jobs);
    EXPECT_EQ(a.seed, b.seed);
  }
  std::ostringstream again;
  fleet_plan_to_csv(parsed.value(), again);
  EXPECT_EQ(oss.str(), again.str());
}

TEST(FleetPlan, ValidateRejectsMalformedStreams) {
  FleetPlan plan;
  plan.events.push_back({-1.0, FleetEventKind::kDropout, -1, {}, 0, 1});
  EXPECT_FALSE(plan.validate().has_value());

  plan.events = {{5.0, FleetEventKind::kWave, -1, {}, 0, 1}};
  EXPECT_FALSE(plan.validate().has_value()) << "wave without jobs";

  plan.events = {{5.0, FleetEventKind::kGlobalCap, -1, -3.0, 0, 0}};
  EXPECT_FALSE(plan.validate().has_value()) << "non-positive cap";

  plan.events = {{9.0, FleetEventKind::kDropout, -1, {}, 0, 1},
                 {5.0, FleetEventKind::kGlobalCap, -1, 640.0, 0, 0}};
  EXPECT_FALSE(plan.validate().has_value()) << "unsorted stream";
  plan.sort();
  EXPECT_TRUE(plan.validate().has_value());

  // NaN fails the range tests too.
  plan.events = {{std::nan(""), FleetEventKind::kDropout, -1, {}, 0, 1}};
  EXPECT_FALSE(plan.validate().has_value()) << "NaN time";
  plan.events = {{5.0, FleetEventKind::kGlobalCap, -1, std::nan(""), 0, 0}};
  EXPECT_FALSE(plan.validate().has_value()) << "NaN cap";

  const std::string header = "time,kind,machine,cap,jobs,seed\n";
  ASSERT_TRUE(fleet_plan_from_csv(header + "5,wave,-,-,2,7\n").has_value());
  for (const char* row : {
           "nan,wave,-,-,2,7",
           "5x,wave,-,-,2,7",
           "5,cap,-,640W,-,-",
           "5,wave,-,-,-2,7",   // unsigned job count
           "5,dropout,1.5,-,-,-",
       }) {
    const auto parsed = fleet_plan_from_csv(header + row + "\n");
    ASSERT_FALSE(parsed.has_value()) << row;
    EXPECT_EQ(parsed.error().category, ErrorCategory::kParse) << row;
  }
}

TEST(FleetPlan, SpecGeneratorIsDeterministicAndScalesCaps) {
  const std::string spec = "random:dropouts=1,caps=2,waves=1,horizon=30,seed=9";
  const auto a = generate_fleet_plan_from_spec(spec, 64);
  const auto b = generate_fleet_plan_from_spec(spec, 64);
  ASSERT_TRUE(a.has_value()) << a.error().message;
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(a.value().size(), 4u);
  std::ostringstream ca;
  std::ostringstream cb;
  fleet_plan_to_csv(a.value(), ca);
  fleet_plan_to_csv(b.value(), cb);
  EXPECT_EQ(ca.str(), cb.str()) << "same spec+seed must replay bit-for-bit";

  const auto big = generate_fleet_plan_from_spec(spec, 1024);
  ASSERT_TRUE(big.has_value());
  for (std::size_t i = 0; i < a.value().size(); ++i) {
    const FleetEvent& small_ev = a.value().events[i];
    const FleetEvent& big_ev = big.value().events[i];
    if (small_ev.kind != FleetEventKind::kGlobalCap) continue;
    ASSERT_TRUE(small_ev.cap && big_ev.cap);
    EXPECT_NEAR(*big_ev.cap, *small_ev.cap * 1024.0 / 64.0, 1e-6)
        << "cap draws are per machine, scaled by the fleet size";
  }
  for (const char* bad : {
           "random:warp=9",
           "dropouts=1",
           "random:waves=1,horizon=nan,seed=3",
           "random:waves=1,horizon=0",
           "random:dropouts=-1",
           "random:caps=1,cap_low=14,cap_high=10",
           "random:caps=1,cap_low=0",
           "random:wave_jobs=4x",
       }) {
    const auto rejected = generate_fleet_plan_from_spec(bad, 64);
    ASSERT_FALSE(rejected.has_value()) << bad;
    EXPECT_EQ(rejected.error().category, ErrorCategory::kParse) << bad;
  }
}

TEST(Fleet, RejectsUnfundableBudgetsAndUnknownStrategies) {
  FleetOptions o = small_options(4, "uniform");
  o.global_cap = 3.0 * o.limits.floor;  // cannot fund 4 floors
  const auto starved =
      Fleet(sim::ivy_bridge(), o).execute({}, shared_artifacts());
  EXPECT_FALSE(starved.has_value());

  FleetOptions bad = small_options(2, "psychic");
  const auto unknown =
      Fleet(sim::ivy_bridge(), bad).execute({}, shared_artifacts());
  EXPECT_FALSE(unknown.has_value());
}

TEST(Fleet, DropoutRedividesWithinOneEventHorizon) {
  FleetOptions o = small_options(4, "uniform");
  FleetPlan plan;
  plan.events.push_back({10.0, FleetEventKind::kDropout, 2, {}, 0, 5});
  const auto report =
      Fleet(sim::ivy_bridge(), o).execute(plan, shared_artifacts());
  ASSERT_TRUE(report.has_value()) << report.error().message;
  const FleetReport& r = report.value();

  EXPECT_EQ(r.dropouts, 1u);
  EXPECT_TRUE(r.machines[2].dropped);
  EXPECT_GT(r.lost_jobs, 0u) << "a mid-run dropout must lose in-flight work";
  EXPECT_EQ(r.total_jobs, r.finished_jobs + r.lost_jobs);

  // Exactly two allocations: t=0 and the re-division at the event itself —
  // not later, not merged away.
  ASSERT_EQ(r.allocations.size(), 2u);
  EXPECT_EQ(r.allocations[1].time, 10.0);
  EXPECT_EQ(r.allocations[0].live, 4u);
  EXPECT_EQ(r.allocations[1].live, 3u);
  EXPECT_EQ(r.allocations[1].caps[2], 0.0) << "dead machines hold 0 W";
  // The dead machine's share was re-divided, not burned: survivors now
  // split the same global budget three ways instead of four.
  EXPECT_GT(r.allocations[1].caps[0], r.allocations[0].caps[0]);
}

TEST(Fleet, WavesAddJobsAndDemand) {
  FleetOptions o = small_options(3, "demand");
  FleetPlan plan;
  plan.events.push_back({5.0, FleetEventKind::kWave, -1, {}, 5, 77});
  const auto report =
      Fleet(sim::ivy_bridge(), o).execute(plan, shared_artifacts());
  ASSERT_TRUE(report.has_value()) << report.error().message;
  const FleetReport& r = report.value();
  EXPECT_EQ(r.waves, 1u);
  std::size_t assigned = 0;
  for (const MachineOutcome& m : r.machines) assigned += m.assigned_jobs;
  EXPECT_EQ(assigned, r.total_jobs);
  EXPECT_EQ(r.finished_jobs, r.total_jobs) << "no dropout, nothing lost";
  // 3 machines x (2..4 initial) + 5 wave arrivals.
  EXPECT_GE(r.total_jobs, 3 * 2 + 5u);
}

TEST(Fleet, SixtyFourMachinesByteIdenticalCacheOnVsOff) {
  FleetOptions o = small_options(64, "demand");
  FleetPlan plan;
  plan.events.push_back({8.0, FleetEventKind::kDropout, -1, {}, 0, 3});
  plan.events.push_back({20.0, FleetEventKind::kGlobalCap, -1, 640.0, 0, 0});

  const auto uncached =
      Fleet(sim::ivy_bridge(), o).execute(plan, shared_artifacts());
  ASSERT_TRUE(uncached.has_value()) << uncached.error().message;

  o.plan_cache = std::make_shared<sched::PlanCache>(sched::PlanCacheConfig{});
  const auto cached =
      Fleet(sim::ivy_bridge(), o).execute(plan, shared_artifacts());
  ASSERT_TRUE(cached.has_value()) << cached.error().message;

  EXPECT_EQ(uncached.value().summary(), cached.value().summary());
  EXPECT_EQ(uncached.value().fleet_makespan, cached.value().fleet_makespan);
  ASSERT_EQ(uncached.value().machines.size(), 64u);
  for (std::size_t m = 0; m < 64; ++m) {
    EXPECT_EQ(uncached.value().machines[m].report.report.makespan,
              cached.value().machines[m].report.report.makespan)
        << "machine " << m;
  }
  const sched::PlanCacheStats stats = o.plan_cache->stats();
  EXPECT_GT(stats.hits + stats.misses, 0u)
      << "the shared cache must actually be consulted";
}

TEST(Fleet, ReportIsByteIdenticalAcrossThreadCounts) {
  FleetOptions o = small_options(8, "marginal");
  FleetPlan plan;
  plan.events.push_back({6.0, FleetEventKind::kWave, -1, {}, 4, 11});
  plan.events.push_back({14.0, FleetEventKind::kDropout, -1, {}, 0, 21});

  const auto run = [&] {
    const auto r = Fleet(sim::ivy_bridge(), o).execute(plan, shared_artifacts());
    EXPECT_TRUE(r.has_value());
    return r.value().summary();
  };
  common::set_default_jobs(1);
  const std::string serial = run();
  common::set_default_jobs(4);
  const std::string parallel = run();
  common::set_default_jobs(0);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Fleet, SteadyStateRespectsTheGlobalCap) {
  FleetOptions o = small_options(8, "marginal");
  FleetPlan plan;
  plan.events.push_back({10.0, FleetEventKind::kGlobalCap, -1, 72.0, 0, 0});
  const auto report =
      Fleet(sim::ivy_bridge(), o).execute(plan, shared_artifacts());
  ASSERT_TRUE(report.has_value()) << report.error().message;
  EXPECT_GT(report.value().power_samples, 0u);
  EXPECT_EQ(report.value().steady_over_cap, 0u)
      << "allocations conserve the budget, so only post-event transients may"
         " overshoot";
}

}  // namespace
}  // namespace corun::fleet
