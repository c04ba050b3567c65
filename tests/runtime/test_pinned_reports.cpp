// Both runtimes' reports pinned to recorded digests. The runtime tests
// compare runs of one build with each other (modes, worker counts, cache
// state), so a change that moved every run the same way would pass them;
// these tests pin each report's FNV-1a hash over a %.17g digest of its jobs,
// start and finish times, energy, cap statistics and power trace. Each case
// covers one schedule shape the runtimes treat specially: Default's CPU batch
// launch, Random's shared queue, an HCS+ plan's model-driven DVFS with a solo
// tail, and dynamic runs through a dropout and a cap move.
//
// Like PinnedTrajectory, the hashes depend on the toolchain's libm. The
// artifacts, backends and thermal switch are set explicitly, so the
// CORUN_BACKEND and CORUN_THERMAL defaults do not reach these cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/runtime/dynamic.hpp"
#include "corun/core/runtime/experiment.hpp"
#include "corun/core/runtime/runtime.hpp"
#include "corun/core/sched/registry.hpp"
#include "corun/sim/fault_injector.hpp"
#include "corun/workload/rodinia.hpp"

namespace corun::runtime {
namespace {

constexpr Watts kCap = 15.0;

sim::BackendSpec backend(sim::BackendKind kind) {
  sim::BackendSpec spec;
  spec.kind = kind;
  return spec;
}

struct Artifacts {
  sim::MachineConfig config = sim::ivy_bridge();
  workload::Batch batch = workload::make_batch_motivation(42);
  ModelArtifacts model;

  Artifacts() {
    ArtifactOptions options;
    options.backend = backend(sim::BackendKind::kEvent);
    options.cpu_levels = {0, 5, 10};
    options.gpu_levels = {0, 3, 6};
    options.grid_axis = {0.0, 4.0, 8.0, 11.0};
    model = build_artifacts(config, batch, options);
  }
};

const Artifacts& artifacts() {
  static const Artifacts a;
  return a;
}

void put(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g,", v);
  out += buf;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t report_hash(const ExecutionReport& r) {
  std::string s;
  put(s, r.makespan);
  for (const JobOutcome& j : r.jobs) {
    s += j.name + ',';
    put(s, static_cast<double>(j.job));
    put(s, static_cast<double>(j.device));
    put(s, j.start);
    put(s, j.finish);
  }
  put(s, r.energy);
  put(s, r.avg_power);
  put(s, static_cast<double>(r.cap_stats.samples));
  put(s, static_cast<double>(r.cap_stats.over_cap));
  put(s, r.cap_stats.worst_overshoot);
  put(s, r.cap_stats.time_over_cap);
  for (const sim::PowerSample& p : r.power_trace) {
    put(s, p.t);
    put(s, p.measured);
    put(s, p.true_power);
    put(s, p.cpu_level);
    put(s, p.gpu_level);
    put(s, p.cpu_bw);
    put(s, p.gpu_bw);
  }
  return fnv1a(s);
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

constexpr sim::BackendKind kBackends[] = {sim::BackendKind::kEvent,
                                          sim::BackendKind::kTick};

/// Plans the fixture batch with `scheduler` at the cap, lets `shape` check
/// (and possibly edit) the plan, then executes it on the event and the tick
/// backend; both reports must hash to `expected`.
void expect_static(const std::string& scheduler, sim::GovernorPolicy policy,
                   const std::string& expected,
                   void (*shape)(sched::Schedule&)) {
  const Artifacts& a = artifacts();
  const model::CoRunPredictor predictor(a.model.db, a.model.grid, a.config);
  sched::SchedulerContext ctx;
  ctx.batch = &a.batch;
  ctx.predictor = &predictor;
  ctx.cap = kCap;
  ctx.policy = policy;
  sched::Schedule plan = sched::make_scheduler(scheduler, 7)->plan(ctx);
  shape(plan);
  for (const sim::BackendKind kind : kBackends) {
    RuntimeOptions o;
    o.cap = kCap;
    o.policy = policy;
    o.sample_interval = 0.5;
    o.thermal = false;
    o.backend = backend(kind);
    o.predictor = &predictor;
    const ExecutionReport r = CoRunRuntime(a.config, o).execute(a.batch, plan);
    EXPECT_EQ(hex(report_hash(r)), expected)
        << scheduler << " on " << backend(kind).name();
  }
}

TEST(PinnedReports, StaticDefaultBatchLaunchUnderCpuBiasedPolicy) {
  expect_static("default", sim::GovernorPolicy::kCpuBiased,
                "3e5fda425f6a7784", [](sched::Schedule& plan) {
                  ASSERT_TRUE(plan.cpu_batch_launch);
                  ASSERT_GT(plan.cpu.size(), 1u);
                });
}

TEST(PinnedReports, StaticRandomSharedQueue) {
  expect_static("random", sim::GovernorPolicy::kGpuBiased,
                "7e31ac2740661ad4", [](sched::Schedule& plan) {
                  ASSERT_TRUE(plan.shared_queue);
                });
}

TEST(PinnedReports, StaticHcsPlusModelDvfsWithSoloTail) {
  // At 15 W HCS+ pairs every job of this batch, so the GPU queue's last job
  // is moved into the solo tail: the run re-derives pairs while both
  // devices are busy and a solo level once the tail starts.
  expect_static("hcs+", sim::GovernorPolicy::kGpuBiased,
                "5c0d02a6bd1dd477", [](sched::Schedule& plan) {
                  ASSERT_TRUE(plan.model_dvfs);
                  ASSERT_TRUE(plan.solo.empty());
                  ASSERT_GT(plan.gpu.size(), 1u);
                  const sched::ScheduledJob last = plan.gpu.back();
                  plan.gpu.pop_back();
                  plan.solo.push_back(
                      {last.job, sim::DeviceKind::kGpu, last.level});
                });
}

/// A dynamic run through a meter dropout and a cap move (plus an arrival
/// of a profiled program and a profile drift), on both backends.
void expect_dynamic(const std::string& scheduler, const std::string& expected) {
  const auto plan = sim::generate_fault_plan_from_spec(
      "random:arrivals=1,cancels=0,caps=1,noise=1,dropouts=1,horizon=60,"
      "seed=7,programs=hotspot");
  ASSERT_TRUE(plan.has_value());
  const Artifacts& a = artifacts();
  for (const sim::BackendKind kind : kBackends) {
    DynamicOptions o;
    o.cap = kCap;
    o.sample_interval = 0.5;
    o.thermal = false;
    o.backend = backend(kind);
    o.scheduler = scheduler;
    const DynamicReport r = DynamicRuntime(a.config, o).execute(
        a.batch, a.model.db, a.model.grid, plan.value());
    ASSERT_EQ(r.dropouts, 1u);
    ASSERT_EQ(r.cap_changes, 1u);
    EXPECT_EQ(hex(report_hash(r.report) ^ fnv1a(r.summary())), expected)
        << scheduler << " on " << backend(kind).name();
  }
}

TEST(PinnedReports, DynamicRandomEventsWithDropoutAndCapMove) {
  expect_dynamic("hcs+", "7fbdbe4692c5c5c1");
}

TEST(PinnedReports, DynamicDefaultPlanWithDropoutAndCapMove) {
  expect_dynamic("default", "e88b069ce5f13fe6");
}

}  // namespace
}  // namespace corun::runtime
