#include "corun/core/sched/hcs.hpp"

#include <gtest/gtest.h>

#include "../support/fixtures.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"

namespace corun::sched {
namespace {

using corun::testing::eight_program_fixture;
using corun::testing::motivation_fixture;

TEST(Hcs, PlanCoversAllJobsExactlyOnce) {
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);
  HcsScheduler hcs;
  const Schedule s = hcs.plan(ctx);
  EXPECT_NO_THROW(s.validate(8));  // plan() also validates internally
  EXPECT_EQ(s.job_count(), 8u);
}

TEST(Hcs, CategorizationMatchesTableOne) {
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(std::nullopt);
  const PlanView view(ctx);
  HcsScheduler hcs;
  // Batch order matches rodinia_suite(): streamcluster, cfd, dwt2d,
  // hotspot, srad, lud, leukocyte, heartwall.
  EXPECT_EQ(hcs.categorize(view, 0), Preference::kGpu);   // streamcluster
  EXPECT_EQ(hcs.categorize(view, 1), Preference::kGpu);   // cfd
  EXPECT_EQ(hcs.categorize(view, 2), Preference::kCpu);   // dwt2d
  EXPECT_EQ(hcs.categorize(view, 3), Preference::kGpu);   // hotspot
  EXPECT_EQ(hcs.categorize(view, 5), Preference::kNone);  // lud
  EXPECT_EQ(hcs.categorize(view, 6), Preference::kGpu);   // leukocyte
}

TEST(Hcs, DwtGoesToCpuWhenCoScheduled) {
  // dwt2d is 2.5x faster on the CPU; a sane plan never places it on the GPU.
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);
  HcsScheduler hcs;
  const Schedule s = hcs.plan(ctx);
  std::size_t dwt_index = 2;
  for (const ScheduledJob& j : s.gpu) {
    EXPECT_NE(j.job, dwt_index);
  }
  for (const SoloJob& j : s.solo) {
    if (j.job == dwt_index) {
      EXPECT_EQ(j.device, sim::DeviceKind::kCpu);
    }
  }
}

TEST(Hcs, ChosenLevelsRespectCapForScheduledPairs) {
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);
  HcsScheduler hcs;
  const Schedule s = hcs.plan(ctx);
  // Every scheduled co-run job's own level must at least be solo-feasible.
  for (const ScheduledJob& j : s.cpu) {
    EXPECT_LE(f.predictor->standalone_power(ctx.job_name(j.job),
                                            sim::DeviceKind::kCpu, j.level),
              15.0);
  }
  for (const ScheduledJob& j : s.gpu) {
    EXPECT_LE(f.predictor->standalone_power(ctx.job_name(j.job),
                                            sim::DeviceKind::kGpu, j.level),
              15.0);
  }
}

TEST(Hcs, BeatsWorstCaseAndIsCloseToExhaustive) {
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  const MakespanEvaluator evaluator(ctx);
  HcsScheduler hcs;
  const Seconds hcs_makespan = evaluator.makespan(hcs.plan(ctx));

  // Deliberately bad plan: dwt2d on the GPU, everything else on the CPU.
  Schedule bad;
  bad.gpu = {{2, 9}};
  bad.cpu = {{0, 15}, {1, 15}, {3, 15}};
  EXPECT_LT(hcs_makespan, evaluator.makespan(bad));
}

TEST(Hcs, PartitionIdentifiesCoRunFriendlyJobs) {
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);
  HcsScheduler hcs;
  const std::vector<bool> in_corun = hcs.corun_partition(PlanView(ctx));
  ASSERT_EQ(in_corun.size(), 8u);
  // With this suite's moderate degradations most jobs benefit from co-runs.
  int count = 0;
  for (const bool b : in_corun) count += b ? 1 : 0;
  EXPECT_GE(count, 6);
}

TEST(Hcs, PairBeneficialForComputeBoundPair) {
  // leukocyte (compute-bound, ~0 interference) paired with anything should
  // pass the theorem test: degradations are tiny versus sequential cost.
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(std::nullopt);
  HcsScheduler hcs;
  EXPECT_TRUE(hcs.pair_beneficial(PlanView(ctx), 6, 5));  // leukocyte vs lud
}

TEST(Hcs, AblationDisablingPartitionForcesAllCoRun) {
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);
  HcsScheduler all_corun(HcsOptions{.use_theorem_partition = false});
  const Schedule s = all_corun.plan(ctx);
  EXPECT_TRUE(s.solo.empty());
}

TEST(Hcs, DegradationFrequencyCriterionAblation) {
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);
  HcsScheduler min_deg(HcsOptions{.min_degradation_freq = true});
  const Schedule s = min_deg.plan(ctx);
  EXPECT_NO_THROW(s.validate(8));
}

TEST(Hcs, WiderPreferenceThresholdMovesLudToNonPreferred) {
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(std::nullopt);
  const PlanView view(ctx);
  // With a huge threshold, nothing is "preferred".
  HcsScheduler loose(HcsOptions{.preference_threshold = 10.0});
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(loose.categorize(view, i), Preference::kNone);
  }
  // With a zero threshold, every job has a preference.
  HcsScheduler strict(HcsOptions{.preference_threshold = 0.0});
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NE(strict.categorize(view, i), Preference::kNone);
  }
}

TEST(Hcs, EmptyBatchYieldsEmptySchedule) {
  const auto& f = eight_program_fixture();
  workload::Batch empty;
  sched::SchedulerContext ctx;
  ctx.batch = &empty;
  ctx.predictor = f.predictor.get();
  HcsScheduler hcs;
  const Schedule s = hcs.plan(ctx);
  EXPECT_EQ(s.job_count(), 0u);
}

TEST(Hcs, SingleJobBatchRunsItOnBestDevice) {
  const auto& f = eight_program_fixture();
  workload::Batch single;
  single.add(workload::rodinia_by_name("streamcluster").value(), 42);
  sched::SchedulerContext ctx;
  ctx.batch = &single;
  ctx.predictor = f.predictor.get();
  HcsScheduler hcs;
  const Schedule s = hcs.plan(ctx);
  s.validate(1);
  // streamcluster prefers the GPU; wherever it lands (solo or GPU queue) it
  // must be a GPU placement.
  const bool on_gpu_seq = !s.gpu.empty();
  const bool on_gpu_solo =
      !s.solo.empty() && s.solo[0].device == sim::DeviceKind::kGpu;
  EXPECT_TRUE(on_gpu_seq || on_gpu_solo);
}

TEST(Hcs, TraceExplainsEveryPlacement) {
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);
  HcsScheduler hcs;
  HcsTrace trace;
  const Schedule s = hcs.plan_traced(ctx, &trace);

  ASSERT_EQ(trace.in_corun.size(), 8u);
  ASSERT_EQ(trace.preference.size(), 8u);
  // Every co-run-phase placement in the schedule has a decision entry.
  EXPECT_EQ(trace.decisions.size(), s.cpu.size() + s.gpu.size());
  // Decisions are in non-decreasing planner time and reference valid jobs.
  Seconds prev = 0.0;
  for (const PairingDecision& d : trace.decisions) {
    EXPECT_LT(d.job, 8u);
    EXPECT_GE(d.predicted_start, prev - 1e-9);
    prev = d.predicted_start;
    EXPECT_GE(d.degradation_sum, 0.0);
  }
  // Trace classes match the public categorize() results.
  const PlanView view(ctx);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(trace.preference[i], hcs.categorize(view, i)) << i;
  }
  // Rendering mentions every job and the partition headers.
  const std::string text = trace.to_string(ctx.job_names());
  EXPECT_NE(text.find("S_co:"), std::string::npos);
  EXPECT_NE(text.find("preferences:"), std::string::npos);
  EXPECT_NE(text.find("dwt2d"), std::string::npos);
}

TEST(Hcs, TracedPlanIdenticalToPlainPlan) {
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);
  HcsScheduler hcs;
  HcsTrace trace;
  const Schedule traced = hcs.plan_traced(ctx, &trace);
  const Schedule plain = hcs.plan(ctx);
  ASSERT_EQ(traced.cpu.size(), plain.cpu.size());
  ASSERT_EQ(traced.gpu.size(), plain.gpu.size());
  for (std::size_t i = 0; i < plain.cpu.size(); ++i) {
    EXPECT_EQ(traced.cpu[i].job, plain.cpu[i].job);
  }
  for (std::size_t i = 0; i < plain.gpu.size(); ++i) {
    EXPECT_EQ(traced.gpu[i].job, plain.gpu[i].job);
  }
}

TEST(Hcs, PreferenceNamesPrintable) {
  EXPECT_STREQ(preference_name(Preference::kCpu), "CPU");
  EXPECT_STREQ(preference_name(Preference::kGpu), "GPU");
  EXPECT_STREQ(preference_name(Preference::kNone), "Non");
}

}  // namespace
}  // namespace corun::sched
