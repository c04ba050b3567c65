// The TaskPool determinism contract, end to end: every sweep must produce
// byte-identical artifacts whatever the worker count, because tasks seed
// from their index and results are collected in index order. These tests
// run each sweep under a 1-worker pool and a 4-worker pool and compare the
// serialized CSV artifacts byte for byte.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "corun/common/task_pool.hpp"
#include "corun/core/model/degradation_space.hpp"
#include "corun/core/sched/branch_and_bound.hpp"
#include "corun/core/sched/exhaustive.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/profile/profiler.hpp"
#include "corun/sim/backend.hpp"
#include "corun/sim/machine.hpp"
#include "corun/workload/batch.hpp"
#include "corun/workload/rodinia.hpp"

#include "../support/fixtures.hpp"

namespace corun {
namespace {

/// Runs `make_artifact` under `jobs` workers and restores the default after.
template <typename Fn>
std::string with_jobs(std::size_t jobs, Fn&& make_artifact) {
  common::set_default_jobs(jobs);
  std::string out = make_artifact();
  common::set_default_jobs(0);
  return out;
}

/// Runs `make_artifact` with the given backend as the process default and
/// restores the previous default after.
template <typename Fn>
std::string with_backend(sim::BackendKind kind, Fn&& make_artifact) {
  const sim::BackendSpec previous = sim::default_backend_spec();
  sim::set_default_backend({.kind = kind, .replay_path = {}});
  std::string out = make_artifact();
  sim::set_default_backend(previous);
  return out;
}

TEST(ParallelDeterminism, CharacterizationGridCsvIsByteIdentical) {
  const sim::MachineConfig config = sim::ivy_bridge();
  const auto characterize = [&config] {
    const model::DegradationSpaceBuilder builder(config);
    const model::DegradationGrid grid =
        builder.characterize({0.0, 5.5, 11.0}, {0.0, 5.5, 11.0});
    std::ostringstream oss;
    grid.write_csv(oss);
    return oss.str();
  };
  const std::string serial = with_jobs(1, characterize);
  const std::string parallel = with_jobs(4, characterize);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelDeterminism, ProfileDbCsvIsByteIdentical) {
  const sim::MachineConfig config = sim::ivy_bridge();
  const workload::Batch batch = workload::make_batch_motivation(42);
  const auto profile = [&] {
    profile::ProfilerOptions options;
    options.cpu_levels = {0, 8};
    options.gpu_levels = {0, 5};
    const profile::Profiler profiler(config, options);
    std::ostringstream oss;
    profiler.profile_batch(batch).write_csv(oss);
    return oss.str();
  };
  const std::string serial = with_jobs(1, profile);
  const std::string parallel = with_jobs(4, profile);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelDeterminism, ExhaustiveSearchPlanIsIdentical) {
  const auto& f = testing::motivation_fixture();
  const auto ctx = f.context(15.0);
  const auto plan = [&ctx] {
    sched::ExhaustiveScheduler exhaustive;
    return exhaustive.plan(ctx).to_string(ctx.job_names());
  };
  EXPECT_EQ(with_jobs(1, plan), with_jobs(4, plan));
}

// The event-horizon engine replays the tick oracle's arithmetic exactly, so
// whole-pipeline artifacts must be byte-identical across engine modes too —
// in any worker-count combination.

TEST(ParallelDeterminism, ProfileDbCsvIsByteIdenticalAcrossEngineModes) {
  const sim::MachineConfig config = sim::ivy_bridge();
  const workload::Batch batch = workload::make_batch_motivation(42);
  const auto profile = [&] {
    profile::ProfilerOptions options;
    options.cpu_levels = {0, 8};
    options.gpu_levels = {0, 5};
    const profile::Profiler profiler(config, options);
    std::ostringstream oss;
    profiler.profile_batch(batch).write_csv(oss);
    return oss.str();
  };
  const std::string tick = with_backend(sim::BackendKind::kTick, profile);
  const std::string event = with_backend(sim::BackendKind::kEvent, profile);
  EXPECT_FALSE(tick.empty());
  EXPECT_EQ(tick, event);
  // Mode and worker count compose: parallel event == serial tick.
  const std::string parallel_event = with_backend(
      sim::BackendKind::kEvent, [&] { return with_jobs(4, profile); });
  EXPECT_EQ(tick, parallel_event);
}

TEST(ParallelDeterminism, CharacterizationGridIsByteIdenticalAcrossEngineModes) {
  const sim::MachineConfig config = sim::ivy_bridge();
  const auto characterize = [&config] {
    const model::DegradationSpaceBuilder builder(config);
    const model::DegradationGrid grid =
        builder.characterize({0.0, 5.5, 11.0}, {0.0, 5.5, 11.0});
    std::ostringstream oss;
    grid.write_csv(oss);
    return oss.str();
  };
  const std::string tick =
      with_backend(sim::BackendKind::kTick, characterize);
  const std::string event =
      with_backend(sim::BackendKind::kEvent, characterize);
  EXPECT_FALSE(tick.empty());
  EXPECT_EQ(tick, event);
}

TEST(ParallelDeterminism, BranchAndBoundMakespanIsIdentical) {
  const auto& f = testing::eight_program_fixture();
  const auto ctx = f.context(15.0);
  const sched::MakespanEvaluator evaluator(ctx);
  const auto plan = [&] {
    sched::BranchAndBoundScheduler bnb;
    const sched::Schedule s = bnb.plan(ctx);
    std::ostringstream oss;
    oss << evaluator.makespan(s) << '|' << s.to_string(ctx.job_names());
    return oss.str();
  };
  EXPECT_EQ(with_jobs(1, plan), with_jobs(4, plan));
}

}  // namespace
}  // namespace corun
