#include "corun/core/runtime/runtime.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "../support/fixtures.hpp"
#include "corun/core/sched/hcs.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"

namespace corun::runtime {
namespace {

using corun::testing::motivation_fixture;

sched::Schedule simple_schedule() {
  // 0=streamcluster, 1=cfd, 2=dwt2d, 3=hotspot.
  sched::Schedule s;
  s.cpu = {{2, 15}, {1, 15}};
  s.gpu = {{0, 9}, {3, 9}};
  return s;
}

TEST(Runtime, ExecutesAllJobsAndReportsOutcomes) {
  const auto& f = motivation_fixture();
  const CoRunRuntime runtime(f.config, RuntimeOptions{});
  const ExecutionReport report = runtime.execute(f.batch, simple_schedule());
  ASSERT_EQ(report.jobs.size(), 4u);
  for (const JobOutcome& j : report.jobs) {
    EXPECT_GT(j.finish, j.start);
    EXPECT_LE(j.finish, report.makespan + 1e-9);
  }
  EXPECT_GT(report.energy, 0.0);
  EXPECT_GT(report.avg_power, 0.0);
}

TEST(Runtime, SequenceOrderRespectedPerDevice) {
  const auto& f = motivation_fixture();
  const CoRunRuntime runtime(f.config, RuntimeOptions{});
  const ExecutionReport report = runtime.execute(f.batch, simple_schedule());
  auto outcome = [&](std::size_t job) {
    for (const JobOutcome& j : report.jobs) {
      if (j.job == job) return j;
    }
    throw std::runtime_error("missing job");
  };
  EXPECT_LE(outcome(2).finish, outcome(1).start + 1e-6);  // CPU order
  EXPECT_LE(outcome(0).finish, outcome(3).start + 1e-6);  // GPU order
  EXPECT_EQ(outcome(2).device, sim::DeviceKind::kCpu);
  EXPECT_EQ(outcome(0).device, sim::DeviceKind::kGpu);
}

TEST(Runtime, GroundTruthTracksPredictedMakespan) {
  // The evaluator predicts with the interpolated model; ground truth runs
  // phase traces. They must agree within the model-error band (~20%).
  const auto& f = motivation_fixture();
  const auto ctx = f.context(std::nullopt);
  const sched::Schedule s = simple_schedule();
  const Seconds predicted = sched::MakespanEvaluator(ctx).makespan(s);
  const CoRunRuntime runtime(f.config, RuntimeOptions{});
  const Seconds actual = runtime.execute(f.batch, s).makespan;
  EXPECT_NEAR(actual, predicted, predicted * 0.2);
}

TEST(Runtime, CapIsEnforcedByGovernor) {
  const auto& f = motivation_fixture();
  RuntimeOptions options;
  options.cap = 15.0;
  options.policy = sim::GovernorPolicy::kGpuBiased;
  const CoRunRuntime runtime(f.config, options);
  const ExecutionReport report = runtime.execute(f.batch, simple_schedule());
  // Mostly under the cap, and transient overshoots bounded (~2 W, Fig. 9).
  EXPECT_LT(report.cap_stats.over_fraction(), 0.25);
  EXPECT_LT(report.cap_stats.worst_overshoot, 3.0);
}

TEST(Runtime, CapSlowsExecution) {
  const auto& f = motivation_fixture();
  const CoRunRuntime uncapped(f.config, RuntimeOptions{});
  RuntimeOptions capped_options;
  capped_options.cap = 13.0;
  const CoRunRuntime capped(f.config, capped_options);
  EXPECT_GT(capped.execute(f.batch, simple_schedule()).makespan,
            uncapped.execute(f.batch, simple_schedule()).makespan * 1.02);
}

TEST(Runtime, SharedQueueKeepsBothDevicesBusy) {
  const auto& f = motivation_fixture();
  sched::Schedule s;
  s.shared_queue = true;
  s.shared = {{0, 15}, {1, 15}, {2, 15}, {3, 15}};
  const CoRunRuntime runtime(f.config, RuntimeOptions{});
  const ExecutionReport report = runtime.execute(f.batch, s);
  ASSERT_EQ(report.jobs.size(), 4u);
  int on_cpu = 0;
  int on_gpu = 0;
  for (const JobOutcome& j : report.jobs) {
    (j.device == sim::DeviceKind::kCpu ? on_cpu : on_gpu) += 1;
  }
  EXPECT_GT(on_cpu, 0);
  EXPECT_GT(on_gpu, 0);
}

TEST(Runtime, BatchLaunchOversubscribesCpu) {
  const auto& f = motivation_fixture();
  sched::Schedule batch;
  batch.cpu_batch_launch = true;
  batch.cpu = {{1, 15}, {2, 15}, {3, 15}};
  batch.gpu = {{0, 9}};
  const CoRunRuntime runtime(f.config, RuntimeOptions{});
  const ExecutionReport report = runtime.execute(f.batch, batch);
  // All three CPU jobs start at t=0 (time sharing), unlike a sequence.
  int started_at_zero = 0;
  for (const JobOutcome& j : report.jobs) {
    if (j.device == sim::DeviceKind::kCpu && j.start < 1e-9) ++started_at_zero;
  }
  EXPECT_EQ(started_at_zero, 3);

  sched::Schedule seq = batch;
  seq.cpu_batch_launch = false;
  const Seconds seq_makespan = runtime.execute(f.batch, seq).makespan;
  // Time sharing with overheads must be slower than the clean sequence.
  EXPECT_GT(report.makespan, seq_makespan * 1.01);
}

TEST(Runtime, SoloTailRunsAlone) {
  const auto& f = motivation_fixture();
  sched::Schedule s;
  s.cpu = {{2, 15}};
  s.gpu = {{0, 9}};
  s.solo = {{1, sim::DeviceKind::kGpu, 9}, {3, sim::DeviceKind::kGpu, 9}};
  const CoRunRuntime runtime(f.config, RuntimeOptions{});
  const ExecutionReport report = runtime.execute(f.batch, s);
  auto outcome = [&](std::size_t job) {
    for (const JobOutcome& j : report.jobs) {
      if (j.job == job) return j;
    }
    throw std::runtime_error("missing job");
  };
  // Solo jobs start only after the co-run phase fully drains.
  const Seconds corun_end = std::max(outcome(2).finish, outcome(0).finish);
  EXPECT_GE(outcome(1).start, corun_end - 1e-6);
  EXPECT_GE(outcome(3).start, outcome(1).finish - 1e-6);
  // And they run at standalone speed (cfd solo on GPU at max level).
  EXPECT_NEAR(outcome(1).runtime(), 26.32, 0.4);
}

TEST(Runtime, DeterministicForSameSeed) {
  const auto& f = motivation_fixture();
  RuntimeOptions options;
  options.cap = 15.0;
  options.seed = 5;
  const CoRunRuntime runtime(f.config, options);
  const Seconds a = runtime.execute(f.batch, simple_schedule()).makespan;
  const Seconds b = runtime.execute(f.batch, simple_schedule()).makespan;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Runtime, ReportSummaryMentionsKeyNumbers) {
  const auto& f = motivation_fixture();
  const CoRunRuntime runtime(f.config, RuntimeOptions{});
  const ExecutionReport report = runtime.execute(f.batch, simple_schedule());
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("makespan="), std::string::npos);
  EXPECT_NE(summary.find("jobs=4"), std::string::npos);
  EXPECT_GT(report.throughput_per_hour(), 0.0);
}

TEST(Runtime, InvalidScheduleRejected) {
  const auto& f = motivation_fixture();
  const CoRunRuntime runtime(f.config, RuntimeOptions{});
  sched::Schedule bad;
  bad.cpu = {{0, 15}};  // misses jobs 1..3
  EXPECT_THROW((void)runtime.execute(f.batch, bad), corun::ContractViolation);
}

TEST(Runtime, RecordingAReplayIsAContractViolation) {
  // Recording while replaying would save the replayed trace again, not a
  // measurement of this run; the pair used to be accepted with the replay
  // spec silently dropped.
  const auto& f = motivation_fixture();
  const auto dir = std::filesystem::temp_directory_path();
  const std::string tag = std::to_string(::getpid());
  const auto first = dir / ("corun_runtime_rec_" + tag + ".csv");
  const auto again = dir / ("corun_runtime_rerec_" + tag + ".csv");
  RuntimeOptions rec;
  rec.record_trace_path = first.string();
  (void)CoRunRuntime(f.config, rec).execute(f.batch, simple_schedule());

  RuntimeOptions both;
  both.backend = {.kind = sim::BackendKind::kReplay,
                  .replay_path = first.string()};
  both.record_trace_path = again.string();
  const CoRunRuntime runtime(f.config, both);
  EXPECT_THROW((void)runtime.execute(f.batch, simple_schedule()),
               corun::ContractViolation);
  EXPECT_FALSE(std::filesystem::exists(again));
  std::filesystem::remove(first);
  std::filesystem::remove(again);
}

}  // namespace
}  // namespace corun::runtime
