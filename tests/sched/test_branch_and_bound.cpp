#include "corun/core/sched/branch_and_bound.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../support/fixtures.hpp"
#include "corun/core/sched/exhaustive.hpp"
#include "corun/core/sched/hcs.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/refiner.hpp"

namespace corun::sched {
namespace {

using corun::testing::eight_program_fixture;
using corun::testing::motivation_fixture;

TEST(BranchAndBound, MatchesExhaustivePlacementOptimumOnFourJobs) {
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  const MakespanEvaluator evaluator(ctx);
  BranchAndBoundScheduler bnb;
  const Seconds bnb_makespan = evaluator.makespan(bnb.plan(ctx));
  ExhaustiveScheduler exhaustive;
  const Seconds exhaustive_makespan = evaluator.makespan(exhaustive.plan(ctx));
  // BnB explores placements + refinement; exhaustive explores placements +
  // orders with fixed ceilings. They must land within a whisker.
  EXPECT_NEAR(bnb_makespan, exhaustive_makespan,
              exhaustive_makespan * 0.05);
}

TEST(BranchAndBound, NeverWorseThanItsHcsPlusSeed) {
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);
  const MakespanEvaluator evaluator(ctx);
  BranchAndBoundScheduler bnb;
  const Seconds bnb_makespan = evaluator.makespan(bnb.plan(ctx));
  HcsPlusScheduler hcs_plus;
  const Seconds seed_makespan = evaluator.makespan(hcs_plus.plan(ctx));
  EXPECT_LE(bnb_makespan, seed_makespan + 1e-9);
}

TEST(BranchAndBound, PruningActuallyPrunes) {
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);
  BranchAndBoundScheduler bnb;
  (void)bnb.plan(ctx);
  EXPECT_GT(bnb.nodes_visited(), 0u);
  EXPECT_GT(bnb.nodes_pruned(), 0u);
  // Without pruning an 8-job placement tree has 2^9 - 1 = 511 internal
  // nodes plus 256 leaves; the HCS+ incumbent should cut well below the
  // full tree's leaf count.
  EXPECT_LT(bnb.leaves_evaluated(), 256u);
}

TEST(BranchAndBound, RespectsJobLimit) {
  static_assert(BranchAndBoundScheduler::kMaxJobs == 12);
  const auto f = corun::testing::make_fixture(workload::make_batch_n(13, 42));
  BranchAndBoundScheduler bnb;
  EXPECT_THROW((void)bnb.plan(f->context(15.0)), corun::ContractViolation);
}

TEST(BranchAndBound, AnalyticEvalOptOutIsByteIdentical) {
  // The dense analytic tables (PredictorOptions::analytic_tables) hold the
  // exact bits the legacy on-demand path computes, so searching through a
  // table-free copy-view of the predictor must return the same schedule
  // bytes at every cap.
  for (const testing::Fixture* f :
       {&motivation_fixture(), &eight_program_fixture()}) {
    for (const Watts cap : {11.0, 13.5, 15.0, 18.0}) {
      const auto ctx = f->context(cap);
      ASSERT_TRUE(ctx.model().options().analytic_tables);
      const model::CoRunPredictor legacy(
          ctx.model(), model::PredictorOptions{.analytic_tables = false});
      SchedulerContext legacy_ctx = ctx;
      legacy_ctx.predictor = &legacy;
      EXPECT_EQ(BranchAndBoundScheduler().plan(ctx).to_string(ctx.job_names()),
                BranchAndBoundScheduler().plan(legacy_ctx).to_string(
                    ctx.job_names()))
          << "cap=" << cap << " n=" << f->batch.size();
    }
  }
}

TEST(BranchAndBound, PlanIsValidAndModelDvfs) {
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);
  BranchAndBoundScheduler bnb;
  const Schedule s = bnb.plan(ctx);
  EXPECT_NO_THROW(s.validate(8));
  EXPECT_TRUE(s.model_dvfs);
  EXPECT_EQ(bnb.name(), "BnB");
}

}  // namespace
}  // namespace corun::sched
