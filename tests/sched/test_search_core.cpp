// Search-core contract and property suite (see docs/search.md).
//
// Branch-and-bound returns the HCS+ seed unless some leaf is strictly
// better, and then the first minimum-makespan leaf in canonical order,
// polished by the refiner. Pruning may change how much of the tree is
// visited, never which plan comes back. These tests pin that contract:
//   - byte equality with a brute-force reference of the contract on
//     distinct and clone batches across 25 caps, at one and four workers
//     (node counts equal too);
//   - agreement with the exhaustive scheduler on small batches;
//   - push/pop exact-restore and admissibility properties of the
//     IncrementalBound cursor;
//   - equivalence dominance holding clone batches to their canonical run
//     patterns, and firing on twin jobs at the top of the tree.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../support/fixtures.hpp"
#include "corun/common/rng.hpp"
#include "corun/common/task_pool.hpp"
#include "corun/core/sched/branch_and_bound.hpp"
#include "corun/core/sched/exhaustive.hpp"
#include "corun/core/sched/lower_bound.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/plan_cache/signature.hpp"
#include "corun/core/sched/refiner.hpp"

namespace corun::sched {
namespace {

using corun::testing::eight_program_fixture;
using corun::testing::make_fixture;
using corun::testing::motivation_fixture;

constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();

/// The search's optimistic per-device times (best cap-feasible solo level).
void solo_times(const SchedulerContext& ctx, std::vector<Seconds>& t_cpu,
                std::vector<Seconds>& t_gpu) {
  const model::CoRunPredictor& m = ctx.model();
  const std::size_t n = ctx.jobs().size();
  t_cpu.assign(n, kInf);
  t_gpu.assign(n, kInf);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& name = ctx.job_name(i);
    for (const sim::DeviceKind d :
         {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
      if (const auto l = m.best_solo_level(name, d, ctx.cap)) {
        (d == sim::DeviceKind::kCpu ? t_cpu : t_gpu)[i] =
            m.standalone_time(name, d, *l);
      }
    }
  }
}

/// The plan() contract, by brute force: the HCS+ seed, replaced by each
/// strictly better leaf in canonical order (job 0 decided first, GPU before
/// CPU), then by the refiner's polish if that is strictly better.
Schedule reference_plan(const SchedulerContext& ctx) {
  const model::CoRunPredictor& m = ctx.model();
  const MakespanEvaluator evaluator(ctx);
  const std::size_t n = ctx.jobs().size();
  Schedule best_schedule = HcsPlusScheduler().plan(ctx);
  Seconds best = evaluator.makespan(best_schedule);
  // Bit n-1-j of `rank` set puts job j on the CPU, so ascending ranks walk
  // the placements in canonical order.
  for (std::uint32_t rank = 0; rank < (1u << n); ++rank) {
    Schedule leaf;
    leaf.model_dvfs = true;
    bool feasible = true;
    for (std::size_t job = 0; job < n && feasible; ++job) {
      const bool cpu = (rank >> (n - 1 - job)) & 1u;
      const sim::DeviceKind d =
          cpu ? sim::DeviceKind::kCpu : sim::DeviceKind::kGpu;
      const auto level = m.best_solo_level(ctx.job_name(job), d, ctx.cap);
      feasible = level.has_value();
      if (feasible) (cpu ? leaf.cpu : leaf.gpu).push_back({job, *level});
    }
    if (!feasible) continue;
    const Seconds makespan = evaluator.makespan(leaf);
    if (makespan < best) {
      best = makespan;
      best_schedule = std::move(leaf);
    }
  }
  Schedule refined = Refiner().refine(ctx, best_schedule);
  if (evaluator.makespan(refined) < best) best_schedule = std::move(refined);
  return best_schedule;
}

/// Contiguous identical instances of each (program, copies) entry — the
/// batch-server shape, where same-class runs form.
std::unique_ptr<testing::Fixture> clone_fixture(
    const std::vector<std::pair<std::string, int>>& programs) {
  workload::Batch batch;
  std::uint64_t seed = 9001;
  for (const auto& [program, copies] : programs) {
    const auto desc = workload::rodinia_by_name(program).value();
    for (int i = 0; i < copies; ++i) {
      batch.add(desc, seed, program + "#" + std::to_string(i));
    }
    ++seed;
  }
  return make_fixture(std::move(batch));
}

TEST(SearchCore, MatchesExhaustiveOnSixJobSubBatch) {
  // A six-job sub-batch of the eight-program suite, searched exhaustively.
  // BnB explores placements + refinement; exhaustive explores placements +
  // orders at fixed ceilings — same convention (and tolerance) as the
  // four-job exhaustive test in test_branch_and_bound.cpp.
  const auto& eight = eight_program_fixture();
  workload::Batch six;
  for (std::size_t i = 0; i < 6; ++i) {
    const workload::BatchJob& j = eight.batch.job(i);
    six.add(j.descriptor, j.seed, j.instance_name);
  }
  const auto f = make_fixture(std::move(six));
  for (const Watts cap : {12.0, 15.0, 18.0}) {
    const auto ctx = f->context(cap);
    const MakespanEvaluator evaluator(ctx);
    BranchAndBoundScheduler bnb;
    const Seconds bnb_makespan = evaluator.makespan(bnb.plan(ctx));
    ExhaustiveScheduler exhaustive;
    const Seconds opt = evaluator.makespan(exhaustive.plan(ctx));
    EXPECT_NEAR(bnb_makespan, opt, opt * 0.05) << "cap=" << cap;
  }
}

TEST(SearchCore, CursorPushPopRestoresBitExactly) {
  // Snapshot-restore contract: after any push/pop excursion the cursor's
  // state — and therefore both bounds — must equal the pre-excursion
  // values bit for bit, no matter how deep the excursion went. This is
  // what makes the bound a pure function of the path and keeps pruning
  // decisions deterministic.
  const auto& f = eight_program_fixture();
  const auto ctx = f.context(15.0);
  std::vector<Seconds> t_cpu, t_gpu;
  solo_times(ctx, t_cpu, t_gpu);
  const PlanView view(ctx);
  const IncrementalBound model(view, t_cpu, t_gpu);
  const std::size_t n = model.size();

  Rng rng(2026);
  for (int trial = 0; trial < 50; ++trial) {
    IncrementalBound::Cursor cur = model.cursor();
    struct Snap {
      Seconds cpu_load, gpu_load, remaining, occ, load_bound, bound;
    };
    std::vector<Snap> snaps;
    auto snapshot = [&]() {
      return Snap{cur.cpu_load(),  cur.gpu_load(), cur.remaining(),
                  cur.occupancy_sum(), cur.load_bound(), cur.bound()};
    };
    snaps.push_back(snapshot());
    // Random walk to a leaf...
    while (cur.depth() < n) {
      const std::size_t job = cur.depth();
      sim::DeviceKind d = rng.uniform_int(0, 1) == 0 ? sim::DeviceKind::kCpu
                                                     : sim::DeviceKind::kGpu;
      if ((d == sim::DeviceKind::kCpu ? t_cpu : t_gpu)[job] >= 1e18) {
        d = d == sim::DeviceKind::kCpu ? sim::DeviceKind::kGpu
                                       : sim::DeviceKind::kCpu;
      }
      cur.push(job, d);
      snaps.push_back(snapshot());
    }
    // ...then unwind, checking every restored level against its snapshot.
    while (cur.depth() > 0) {
      cur.pop();
      const Snap& expect = snaps[cur.depth()];
      const Snap now = snapshot();
      EXPECT_EQ(now.cpu_load, expect.cpu_load);
      EXPECT_EQ(now.gpu_load, expect.gpu_load);
      EXPECT_EQ(now.remaining, expect.remaining);
      EXPECT_EQ(now.occ, expect.occ);
      EXPECT_EQ(now.load_bound, expect.load_bound);
      EXPECT_EQ(now.bound, expect.bound);
    }
  }
}

TEST(SearchCore, BoundIsAdmissibleAtEveryLeafPrefix) {
  // Enumerate all 2^n placements of the four-job batch; along every root-
  // to-leaf path, every prefix bound must stay at or below the evaluator's
  // makespan of that leaf (the value the search prunes against).
  const auto& f = motivation_fixture();
  for (const Watts cap : {11.0, 15.0, 19.0}) {
    const auto ctx = f.context(cap);
    const MakespanEvaluator evaluator(ctx);
    const model::CoRunPredictor& m = ctx.model();
    std::vector<Seconds> t_cpu, t_gpu;
    solo_times(ctx, t_cpu, t_gpu);
    const PlanView view(ctx);
    const IncrementalBound model(view, t_cpu, t_gpu);
    const std::size_t n = model.size();

    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      IncrementalBound::Cursor cur = model.cursor();
      bool reachable = true;
      for (std::size_t job = 0; job < n && reachable; ++job) {
        const bool gpu = (mask >> job) & 1u;
        if ((gpu ? t_gpu : t_cpu)[job] >= 1e18) {
          reachable = false;
          break;
        }
        cur.push(job, gpu ? sim::DeviceKind::kGpu : sim::DeviceKind::kCpu);
      }
      if (!reachable) continue;

      // The leaf exactly as the search scores it: per-device index order,
      // best cap-feasible solo levels, model-driven DVFS.
      Schedule leaf;
      leaf.model_dvfs = true;
      for (std::size_t job = 0; job < n; ++job) {
        const sim::DeviceKind d = cur.device_at(job);
        (d == sim::DeviceKind::kCpu ? leaf.cpu : leaf.gpu)
            .push_back(
                {job,
                 m.best_solo_level(ctx.job_name(job), d, ctx.cap).value_or(0)});
      }
      const Seconds makespan = evaluator.makespan(leaf);

      // Check the bound at every prefix depth of this path.
      for (std::size_t depth = n;; --depth) {
        EXPECT_LE(cur.load_bound(), makespan + 1e-9)
            << "cap=" << cap << " mask=" << mask << " depth=" << depth;
        EXPECT_LE(cur.bound(), makespan + 1e-9)
            << "cap=" << cap << " mask=" << mask << " depth=" << depth;
        EXPECT_GE(cur.bound(), cur.load_bound());  // strictly stronger form
        if (depth == 0) break;
        cur.pop();
      }
    }
  }
}

TEST(SearchCore, PlanIsTheFirstMinimumLeafInCanonicalOrderAtAnyJobs) {
  // The plan() contract against the brute-force reference, on distinct
  // and clone batches across 25 caps. With one and with four workers the
  // bytes match the reference and the node counts match each other. Each
  // case also caps the leaves scored: within a same-class run dominance
  // leaves only the patterns "first k members on the GPU, the rest on the
  // CPU", so runs of lengths L1, L2, ... score at most (L1+1)(L2+1)...
  const auto clones = clone_fixture({{"lud", 4}, {"hotspot", 4}});
  const auto uniform = clone_fixture({{"lud", 8}});
  const std::pair<const testing::Fixture*, std::size_t> cases[] = {
      {&motivation_fixture(), 16},
      {&eight_program_fixture(), 256},
      {clones.get(), 25},
      {uniform.get(), 9}};
  for (const auto& [f, max_leaves] : cases) {
    for (int i = 0; i < 25; ++i) {
      const Watts cap = 10.0 + 0.4 * i;
      const auto ctx = f->context(cap);
      const std::string expected =
          reference_plan(ctx).to_string(ctx.job_names());
      std::vector<std::size_t> nodes;
      for (const std::size_t jobs : {1, 4}) {
        common::set_default_jobs(jobs);
        BranchAndBoundScheduler bnb;
        EXPECT_EQ(bnb.plan(ctx).to_string(ctx.job_names()), expected)
            << "cap=" << cap << " n=" << f->batch.size() << " jobs=" << jobs;
        EXPECT_LE(bnb.leaves_evaluated(), max_leaves) << "cap=" << cap;
        EXPECT_EQ(bnb.nodes_pruned(),
                  bnb.bound_prunes() + bnb.dominance_prunes());
        nodes.push_back(bnb.nodes_visited());
      }
      common::set_default_jobs(0);
      EXPECT_EQ(nodes[0], nodes[1]) << "cap=" << cap;
    }
  }
}

TEST(SearchCore, DominancePrunesTwinsWithoutChangingThePlan) {
  // Two byte-identical jobs at indices 0-1 of an eight-job batch: the only
  // situation the equivalence dominance rule targets, at the top of the
  // tree. It must fire (dominance_prunes > 0) and the plan must still be
  // the reference's.
  const auto& eight = eight_program_fixture();
  workload::Batch twins;
  const auto lud = workload::rodinia_by_name("lud");
  ASSERT_TRUE(lud.has_value());
  twins.add(*lud, 4242, "lud#a");
  twins.add(*lud, 4242, "lud#b");  // identical profile rows -> equal digests
  for (std::size_t i = 0; i < 6; ++i) {
    const workload::BatchJob& j = eight.batch.job(i);
    twins.add(j.descriptor, j.seed, j.instance_name);
  }
  const auto f = make_fixture(std::move(twins));
  const auto ctx = f->context(15.0);

  ASSERT_EQ(job_profile_digest(ctx.model().db(), "lud#a"),
            job_profile_digest(ctx.model().db(), "lud#b"));

  BranchAndBoundScheduler bnb;
  EXPECT_EQ(bnb.plan(ctx).to_string(ctx.job_names()),
            reference_plan(ctx).to_string(ctx.job_names()));
  EXPECT_GT(bnb.dominance_prunes(), 0u);
}

}  // namespace
}  // namespace corun::sched
