// DynamicRuntime: online rescheduling under a seeded fault stream.
//
// The three acceptance properties of the dynamic layer:
//   1. safety — after a mid-run cap drop, the governor brings power under
//      the new cap and keeps it there beyond its reaction window;
//   2. profit — rescheduling ON completes the same scenario no later than
//      OFF on the large majority of seeded scenarios;
//   3. determinism — identical reports across engine modes and worker
//      counts, byte for byte.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include "../support/fixtures.hpp"
#include "corun/common/task_pool.hpp"
#include "corun/core/runtime/dynamic.hpp"
#include "corun/sim/fault_injector.hpp"

namespace corun::runtime {
namespace {

using corun::testing::motivation_fixture;

DynamicOptions base_options() {
  DynamicOptions o;
  o.cap = 15.0;
  o.seed = 42;
  o.sample_interval = 0.25;
  return o;
}

DynamicReport run(const DynamicOptions& options, const sim::FaultPlan& plan) {
  const auto& f = motivation_fixture();
  const DynamicRuntime rt(f.config, options);
  return rt.execute(f.batch, f.artifacts.db, f.artifacts.grid, plan);
}

/// Deterministic digest of everything a report exposes.
std::string digest(const DynamicReport& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.summary();
  for (const JobOutcome& j : r.report.jobs) {
    os << j.job << ',' << j.name << ',' << static_cast<int>(j.device) << ','
       << j.start << ',' << j.finish << '\n';
  }
  for (const sim::PowerSample& s : r.report.power_trace) {
    os << s.t << ',' << s.measured << ',' << s.true_power << ','
       << s.cpu_level << ',' << s.gpu_level << '\n';
  }
  for (const AppliedFault& a : r.log) {
    os << a.applied_at << ',' << sim::fault_kind_name(a.event.kind) << ','
       << a.replanned << ',' << a.detail << '\n';
  }
  return os.str();
}

TEST(DynamicRuntime, EmptyPlanMatchesJobCount) {
  const DynamicReport r = run(base_options(), sim::FaultPlan{});
  EXPECT_EQ(r.report.jobs.size(), motivation_fixture().batch.size());
  EXPECT_GT(r.report.makespan, 0.0);
  EXPECT_TRUE(r.log.empty());
  EXPECT_EQ(r.replans, 0u);
}

sim::FaultEvent fault_at(Seconds time, sim::FaultKind kind) {
  sim::FaultEvent e;
  e.time = time;
  e.kind = kind;
  return e;
}

sim::FaultEvent arrival_at(Seconds time, const std::string& program,
                           double input_scale, std::uint64_t seed) {
  sim::FaultEvent e = fault_at(time, sim::FaultKind::kArrival);
  e.program = program;
  e.input_scale = input_scale;
  e.seed = seed;
  return e;
}

TEST(DynamicRuntime, CapDropIsEnforcedAfterReactionWindow) {
  sim::FaultPlan plan;
  sim::FaultEvent cap_drop = fault_at(20.0, sim::FaultKind::kCapSet);
  cap_drop.cap = 14.0;
  plan.events.push_back(cap_drop);

  DynamicOptions o = base_options();
  o.cap = std::nullopt;  // start uncapped: the drop is the only constraint
  const DynamicReport r = run(o, plan);

  // The governor steps one level per violating control tick; give it a
  // generous reaction window, then require the *true* power to respect the
  // new cap (small allowance for model granularity at the lowest levels).
  constexpr Seconds kReaction = 3.0;
  constexpr Watts kSlack = 1.0;
  bool any_after = false;
  for (const sim::PowerSample& s : r.report.power_trace) {
    if (s.t < 20.0 + kReaction) continue;
    any_after = true;
    EXPECT_LE(s.true_power, 14.0 + kSlack) << "at t=" << s.t;
  }
  EXPECT_TRUE(any_after);
  EXPECT_EQ(r.cap_changes, 1u);
}

TEST(DynamicRuntime, ArrivalOfKnownProgramUsesCrossRunScaling) {
  // hotspot is profiled (it is in the motivation batch); an arriving second
  // instance with a different input must take the cross-run rung, not pay
  // for online sampling.
  sim::FaultPlan plan;
  plan.events.push_back(arrival_at(5.0, "hotspot", 0.7, 9));
  const DynamicReport r = run(base_options(), plan);
  EXPECT_EQ(r.arrivals, 1u);
  EXPECT_EQ(r.cross_run_estimates, 1u);
  EXPECT_EQ(r.online_sampled, 0u);
  EXPECT_EQ(r.report.jobs.size(), motivation_fixture().batch.size() + 1);
}

TEST(DynamicRuntime, ArrivalOfUnknownProgramFallsBackToSampling) {
  // kmeans is not in the motivation batch: the profile DB knows nothing
  // about it, so the runtime must sample it online and bill the overhead.
  sim::FaultPlan plan;
  plan.events.push_back(arrival_at(5.0, "kmeans", 0.5, 9));
  const DynamicReport r = run(base_options(), plan);
  EXPECT_EQ(r.online_sampled, 1u);
  EXPECT_GT(r.sampling_overhead, 0.0);
  EXPECT_EQ(r.report.jobs.size(), motivation_fixture().batch.size() + 1);
}

TEST(DynamicRuntime, UnknownProgramArrivalIsSkippedGracefully) {
  sim::FaultPlan plan;
  plan.events.push_back(arrival_at(5.0, "no-such-program", 1.0, 9));
  const DynamicReport r = run(base_options(), plan);
  EXPECT_EQ(r.report.jobs.size(), motivation_fixture().batch.size());
  ASSERT_EQ(r.log.size(), 1u);
  EXPECT_NE(r.log[0].detail.find("skipped"), std::string::npos);
}

TEST(DynamicRuntime, RecordThenReplayWithSamplingArrivalIsByteIdentical) {
  // Regression: an arriving unknown program forces rung-3 online sampling,
  // whose machines must run on the event tier even when the run's backend
  // is replay — the demand trace only covers the main machine's launches.
  // (The sampler used to inherit the process-default backend and abort.)
  const auto path = std::filesystem::temp_directory_path() /
                    ("corun_dynamic_replay_test_" +
                     std::to_string(
                         ::testing::UnitTest::GetInstance()->random_seed()) +
                     ".csv");
  sim::FaultPlan plan;
  plan.events.push_back(arrival_at(5.0, "kmeans", 0.5, 9));

  DynamicOptions rec = base_options();
  rec.record_trace_path = path.string();
  const DynamicReport recorded = run(rec, plan);
  EXPECT_EQ(recorded.online_sampled, 1u);

  DynamicOptions rep = base_options();
  rep.backend = {.kind = sim::BackendKind::kReplay,
                 .replay_path = path.string()};
  const DynamicReport replayed = run(rep, plan);
  std::filesystem::remove(path);

  EXPECT_EQ(replayed.online_sampled, 1u);
  EXPECT_EQ(digest(recorded), digest(replayed));
}

TEST(DynamicRuntime, RecordingAReplayIsAContractViolation) {
  // Recording while replaying would save the replayed trace again, not a
  // measurement of this run; the pair used to be accepted with the replay
  // spec silently dropped.
  const auto dir = std::filesystem::temp_directory_path();
  const std::string tag = std::to_string(::getpid());
  const auto first = dir / ("corun_dynamic_rec_" + tag + ".csv");
  const auto again = dir / ("corun_dynamic_rerec_" + tag + ".csv");
  sim::FaultPlan plan;
  DynamicOptions rec = base_options();
  rec.record_trace_path = first.string();
  (void)run(rec, plan);

  DynamicOptions both = base_options();
  both.backend = {.kind = sim::BackendKind::kReplay,
                  .replay_path = first.string()};
  both.record_trace_path = again.string();
  EXPECT_THROW((void)run(both, plan), ContractViolation);
  EXPECT_FALSE(std::filesystem::exists(again));
  std::filesystem::remove(first);
  std::filesystem::remove(again);
}

TEST(DynamicRuntime, CancellationRemovesExactlyOneJob) {
  sim::FaultPlan plan;
  sim::FaultEvent cancel = fault_at(10.0, sim::FaultKind::kCancel);
  cancel.seed = 4;
  plan.events.push_back(cancel);
  const DynamicReport r = run(base_options(), plan);
  EXPECT_EQ(r.cancellations, 1u);
  ASSERT_EQ(r.cancelled.size(), 1u);
  EXPECT_EQ(r.report.jobs.size(), motivation_fixture().batch.size() - 1);
}

TEST(DynamicRuntime, RescheduleOffStillCompletesEverything) {
  const auto plan = sim::generate_fault_plan_from_spec(
      "random:arrivals=2,cancels=1,caps=1,noise=1,dropouts=1,horizon=60,"
      "seed=5,programs=hotspot+srad");
  ASSERT_TRUE(plan.has_value());
  DynamicOptions o = base_options();
  o.reschedule = false;
  const DynamicReport r = run(o, plan.value());
  EXPECT_EQ(r.replans, 0u);
  // 4 batch jobs + 2 arrivals - 1 cancellation.
  EXPECT_EQ(r.report.jobs.size() + r.cancelled.size(), 6u);
}

TEST(DynamicRuntime, RescheduleOffArrivalJoinsARandomPlansSharedQueue) {
  // A Random plan feeds both devices from one shared queue. With
  // rescheduling off, an arrival must join that queue: a device queue the
  // plan never pulls from would leave the machine idle with work queued.
  sim::FaultPlan plan;
  plan.events.push_back(arrival_at(5.0, "hotspot", 0.7, 9));
  DynamicOptions o = base_options();
  o.scheduler = "random";
  o.reschedule = false;
  const DynamicReport r = run(o, plan);
  EXPECT_EQ(r.replans, 0u);
  EXPECT_EQ(r.arrivals, 1u);
  ASSERT_EQ(r.report.jobs.size(), motivation_fixture().batch.size() + 1);
  const auto arrived =
      std::find_if(r.report.jobs.begin(), r.report.jobs.end(),
                   [](const JobOutcome& j) { return j.name == "hotspot#d1"; });
  ASSERT_NE(arrived, r.report.jobs.end());
  EXPECT_GE(arrived->start, 5.0);
}

TEST(DynamicRuntime, ByteIdenticalAcrossEngineModes) {
  const auto plan = sim::generate_fault_plan_from_spec(
      "random:arrivals=2,cancels=1,caps=2,noise=1,dropouts=1,horizon=80,"
      "seed=17,programs=hotspot+srad+lud");
  ASSERT_TRUE(plan.has_value());
  DynamicOptions o = base_options();
  o.backend = {.kind = sim::BackendKind::kEvent, .replay_path = {}};
  const std::string event_digest = digest(run(o, plan.value()));
  o.backend = {.kind = sim::BackendKind::kTick, .replay_path = {}};
  const std::string tick_digest = digest(run(o, plan.value()));
  EXPECT_EQ(event_digest, tick_digest);
}

TEST(DynamicRuntime, ByteIdenticalAcrossWorkerCounts) {
  // The dynamic loop is single-threaded by design; pinning the digest at
  // different task-pool widths guards against anyone parallelizing it
  // non-deterministically later.
  const auto plan = sim::generate_fault_plan_from_spec(
      "random:arrivals=1,cancels=1,caps=1,horizon=60,seed=23,"
      "programs=hotspot");
  ASSERT_TRUE(plan.has_value());
  common::set_default_jobs(1);
  const std::string one = digest(run(base_options(), plan.value()));
  common::set_default_jobs(4);
  const std::string four = digest(run(base_options(), plan.value()));
  common::set_default_jobs(0);
  EXPECT_EQ(one, four);
}

TEST(DynamicRuntime, ReschedulingBeatsNaivePlacementOnMostScenarios) {
  // The headline claim: across 50 seeded fault scenarios, replanning with
  // the configured scheduler completes no later than naive placement on at
  // least 80% (ties count — scenarios whose events don't open any slack
  // are a wash by construction).
  int wins_or_ties = 0;
  constexpr int kScenarios = 50;
  for (int s = 0; s < kScenarios; ++s) {
    std::ostringstream spec;
    spec << "random:arrivals=2,cancels=1,caps=1,horizon=60,seed=" << (100 + s)
         << ",programs=hotspot+srad+lud+backprop";
    const auto plan = sim::generate_fault_plan_from_spec(spec.str());
    ASSERT_TRUE(plan.has_value());

    DynamicOptions on = base_options();
    DynamicOptions off = base_options();
    off.reschedule = false;
    const Seconds m_on = run(on, plan.value()).report.makespan;
    const Seconds m_off = run(off, plan.value()).report.makespan;
    if (m_on <= m_off + 1e-9) ++wins_or_ties;
  }
  EXPECT_GE(wins_or_ties, kScenarios * 8 / 10)
      << "rescheduling won or tied only " << wins_or_ties << "/" << kScenarios;
}

/// digest() plus the thermal trace: temperatures and throttle allowances
/// join the byte-identity contract when the thermal model is on.
std::string thermal_digest(const DynamicReport& r) {
  std::ostringstream os;
  os.precision(17);
  os << digest(r);
  os << r.report.thermal.trips << ',' << r.report.thermal.releases << ','
     << r.report.thermal.peak_cpu_c << ',' << r.report.thermal.peak_gpu_c
     << ',' << r.report.thermal.peak_package_c << ','
     << r.report.thermal.throttled_time << '\n';
  for (const sim::ThermalSample& s : r.report.thermal_trace) {
    os << s.t << ',' << s.cpu_c << ',' << s.gpu_c << ',' << s.package_c << ','
       << s.cpu_limit << ',' << s.gpu_limit << '\n';
  }
  return os.str();
}

TEST(DynamicRuntimeThermal, ByteIdenticalAcrossModesWorkersAndCacheState) {
  // The thermal model must not loosen the dynamic layer's determinism
  // property: with it enabled, the full report — now including the
  // temperature trace — stays byte-identical across engine modes, task-pool
  // widths, and plan-cache state.
  const auto plan = sim::generate_fault_plan_from_spec(
      "random:arrivals=1,caps=2,horizon=60,seed=29,programs=hotspot+lud");
  ASSERT_TRUE(plan.has_value());
  DynamicOptions o = base_options();
  o.thermal = true;
  o.backend = {.kind = sim::BackendKind::kEvent, .replay_path = {}};
  const std::string baseline = thermal_digest(run(o, plan.value()));

  DynamicOptions tick = o;
  tick.backend = {.kind = sim::BackendKind::kTick, .replay_path = {}};
  EXPECT_EQ(baseline, thermal_digest(run(tick, plan.value())));

  common::set_default_jobs(1);
  const std::string one = thermal_digest(run(o, plan.value()));
  common::set_default_jobs(4);
  const std::string four = thermal_digest(run(o, plan.value()));
  common::set_default_jobs(0);
  EXPECT_EQ(baseline, one);
  EXPECT_EQ(one, four);

  DynamicOptions cached = o;
  cached.plan_cache = std::make_shared<sched::PlanCache>(sched::PlanCacheConfig{});
  // Twice through the same cache: the second run replans from exact hits.
  EXPECT_EQ(baseline, thermal_digest(run(cached, plan.value())));
  EXPECT_EQ(baseline, thermal_digest(run(cached, plan.value())));
}

TEST(DynamicRuntimeThermal, OffLeavesReportUntouched) {
  const auto plan = sim::generate_fault_plan_from_spec(
      "random:caps=1,horizon=40,seed=7,programs=hotspot");
  ASSERT_TRUE(plan.has_value());
  DynamicOptions off = base_options();
  off.thermal = false;
  const DynamicReport r = run(off, plan.value());
  EXPECT_TRUE(r.report.thermal_trace.empty());
  EXPECT_EQ(r.report.thermal.trips, 0u);
  EXPECT_EQ(r.report.thermal.throttled_time, 0.0);
}

}  // namespace
}  // namespace corun::runtime
