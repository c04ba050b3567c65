// Tests for model-driven DVFS (Schedule::model_dvfs) and backlog-weighted
// frequency-pair selection — the mechanism that re-splits the power budget
// whenever the running set changes (DESIGN.md Sec. 4.3).
#include <gtest/gtest.h>

#include "../support/fixtures.hpp"
#include "corun/core/runtime/runtime.hpp"
#include "corun/core/sched/hcs.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"

namespace corun::sched {
namespace {

using corun::testing::eight_program_fixture;
using corun::testing::motivation_fixture;

TEST(BestPairWeighted, UnitWeightsMatchMinMakespan) {
  const auto& f = eight_program_fixture();
  const auto a = f.predictor->best_pair_min_makespan("dwt2d", "streamcluster",
                                                     15.0);
  const auto b = f.predictor->best_pair_weighted("dwt2d", "streamcluster",
                                                 15.0, 1.0, 1.0);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->cpu, b->cpu);
  EXPECT_EQ(a->gpu, b->gpu);
}

TEST(BestPairWeighted, HeavyGpuBacklogKeepsGpuFast) {
  // With a deep GPU backlog, the chosen pair must not give the GPU a lower
  // level than the balanced choice does.
  const auto& f = eight_program_fixture();
  const auto balanced =
      f.predictor->best_pair_weighted("hotspot", "leukocyte", 15.0, 1.0, 1.0);
  const auto gpu_loaded =
      f.predictor->best_pair_weighted("hotspot", "leukocyte", 15.0, 1.0, 8.0);
  ASSERT_TRUE(balanced && gpu_loaded);
  EXPECT_GE(gpu_loaded->gpu, balanced->gpu);
  EXPECT_LE(gpu_loaded->cpu, balanced->cpu);
}

TEST(BestPairWeighted, WeightedChoiceStillFeasible) {
  const auto& f = eight_program_fixture();
  for (const double w : {0.25, 1.0, 4.0, 16.0}) {
    const auto pair =
        f.predictor->best_pair_weighted("srad", "cfd", 15.0, w, 1.0 / w);
    ASSERT_TRUE(pair.has_value());
    EXPECT_LE(f.predictor->predict_power("srad", pair->cpu, "cfd", pair->gpu),
              15.0);
  }
}

TEST(BestPairWeighted, InvalidWeightsRejected) {
  const auto& f = eight_program_fixture();
  EXPECT_THROW((void)f.predictor->best_pair_weighted("srad", "cfd", 15.0, 0.0,
                                                     1.0),
               corun::ContractViolation);
}

TEST(ModelDvfs, HcsSchedulesRequestIt) {
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);
  HcsScheduler hcs;
  EXPECT_TRUE(hcs.plan(ctx).model_dvfs);
}

TEST(ModelDvfs, BaselinesDoNot) {
  EXPECT_FALSE(sched::Schedule{}.model_dvfs);
  sched::Schedule s;
  s.cpu = {{2, 15}};
  s.gpu = {{0, 9}};
  // A hand-built fixed-level schedule stays fixed-level.
  EXPECT_FALSE(s.model_dvfs);
}

TEST(ModelDvfs, RuntimeRequiresPredictor) {
  const auto& f = motivation_fixture();
  sched::Schedule s;
  s.cpu = {{2, 15}};
  s.gpu = {{0, 9}, {1, 9}, {3, 9}};
  s.model_dvfs = true;
  runtime::RuntimeOptions rt;  // predictor not set
  rt.cap = 15.0;
  const runtime::CoRunRuntime runner(f.config, rt);
  EXPECT_THROW((void)runner.execute(f.batch, s), corun::ContractViolation);
}

TEST(ModelDvfs, BeatsStaticLevelsUnderTightCap) {
  // The motivating pathology: with static per-job levels the first pairing
  // claims the power budget and later joiners start at the floor. The same
  // placement with model_dvfs must execute at least as fast.
  const auto& f = eight_program_fixture();
  sched::Schedule static_levels;
  // dwt2d then lud on CPU; the six GPU-preferred jobs on the GPU. Static
  // levels mimic what a naive per-job assignment would pin.
  static_levels.cpu = {{2, 15}, {5, 8}};
  static_levels.gpu = {{3, 9}, {6, 0}, {7, 2}, {4, 2}, {1, 2}, {0, 2}};
  sched::Schedule dynamic = static_levels;
  dynamic.model_dvfs = true;

  runtime::RuntimeOptions rt;
  rt.cap = 15.0;
  rt.predictor = f.predictor.get();
  const runtime::CoRunRuntime runner(f.config, rt);
  const Seconds t_static = runner.execute(f.batch, static_levels).makespan;
  const Seconds t_dynamic = runner.execute(f.batch, dynamic).makespan;
  EXPECT_LT(t_dynamic, t_static * 0.9);
}

TEST(ModelDvfs, EvaluatorAndRuntimeAgree) {
  // The analytic evaluator and the ground-truth runtime resolve model_dvfs
  // operating points with the same rules; their makespans must agree within
  // the model-error band.
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);
  HcsScheduler hcs;
  const sched::Schedule s = hcs.plan(ctx);
  const Seconds predicted = MakespanEvaluator(ctx).makespan(s);
  runtime::RuntimeOptions rt;
  rt.cap = 15.0;
  rt.predictor = f.predictor.get();
  const Seconds actual =
      runtime::CoRunRuntime(f.config, rt).execute(f.batch, s).makespan;
  EXPECT_NEAR(actual, predicted, predicted * 0.25);
}

TEST(ModelDvfs, CapStillRespectedOnGroundTruth) {
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);
  HcsScheduler hcs;
  runtime::RuntimeOptions rt;
  rt.cap = 15.0;
  rt.predictor = f.predictor.get();
  const auto report =
      runtime::CoRunRuntime(f.config, rt).execute(f.batch, hcs.plan(ctx));
  EXPECT_LT(report.cap_stats.over_fraction(), 0.3);
  EXPECT_LT(report.cap_stats.worst_overshoot, 3.0);
}

}  // namespace
}  // namespace corun::sched
