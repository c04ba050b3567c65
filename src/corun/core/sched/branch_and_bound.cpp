#include "corun/core/sched/branch_and_bound.hpp"

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "corun/common/check.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/core/sched/lower_bound.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/plan_view.hpp"
#include "corun/core/sched/refiner.hpp"
#include "corun/profile/profile_db.hpp"

namespace corun::sched {
namespace {

/// True when two jobs have bit-identical profile entries: the same levels
/// per device and the same time, bandwidth, power and energy at each level.
/// The predictor — and with it the makespan evaluator — is a pure function
/// of a job's entries, so such jobs are indistinguishable to the search.
bool same_profile(const profile::ProfileDB& db, const std::string& a,
                  const std::string& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  for (const sim::DeviceKind d :
       {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
    const std::vector<sim::FreqLevel> levels = db.levels(a, d);
    if (levels != db.levels(b, d)) return false;
    for (const sim::FreqLevel level : levels) {
      const profile::ProfileEntry& x = db.at(a, d, level);
      const profile::ProfileEntry& y = db.at(b, d, level);
      if (!same(x.time, y.time) || !same(x.avg_bw, y.avg_bw) ||
          !same(x.avg_power, y.avg_power) || !same(x.energy, y.energy)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

Schedule BranchAndBoundScheduler::plan(const SchedulerContext& ctx) {
  CORUN_TRACE_SPAN("sched", "bnb.plan");
  const std::size_t n = ctx.jobs().size();
  CORUN_CHECK_MSG(n <= kMaxJobs, "branch-and-bound limited to " +
                                     std::to_string(kMaxJobs) + " jobs");
  const model::CoRunPredictor& m = ctx.model();
  // Every query below — the HCS+ seed, the bound tables, each leaf and the
  // final polish — goes through this one view of the batch.
  const PlanView view(ctx);
  const MakespanEvaluator evaluator(view);

  // Optimistic per-device times (best cap-feasible level, no degradation)
  // and the levels a leaf runs each job at.
  std::vector<Seconds> t_cpu(n, std::numeric_limits<Seconds>::infinity());
  std::vector<Seconds> t_gpu(n, std::numeric_limits<Seconds>::infinity());
  std::vector<sim::FreqLevel> level_cpu(n, 0);
  std::vector<sim::FreqLevel> level_gpu(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (const auto l = view.best_solo_level(i, sim::DeviceKind::kCpu)) {
      t_cpu[i] = view.best_solo_time(i, sim::DeviceKind::kCpu);
      level_cpu[i] = *l;
    }
    if (const auto l = view.best_solo_level(i, sim::DeviceKind::kGpu)) {
      t_gpu[i] = view.best_solo_time(i, sim::DeviceKind::kGpu);
      level_gpu[i] = *l;
    }
    CORUN_CHECK_MSG(t_cpu[i] < 1e18 || t_gpu[i] < 1e18,
                    "job " + ctx.job_name(i) + " infeasible on both devices");
  }
  const IncrementalBound bound_model(view, t_cpu, t_gpu);

  // Same-class index runs for equivalence dominance: maximal runs of
  // consecutive jobs with identical profile entries. Only runs count: the
  // evaluator consumes each device's jobs in index order, so swapping two
  // identical jobs with a different job between them reorders a device's
  // row sequence and can change the makespan. Within a run every affected
  // row is identical, so moving a run member across devices leaves both row
  // sequences — and the evaluated makespan — bit-identical.
  std::vector<std::size_t> run_id(n, 0);
  for (std::size_t i = 1; i < n; ++i) {
    run_id[i] = run_id[i - 1] +
                (same_profile(m.db(), ctx.job_name(i - 1), ctx.job_name(i))
                     ? 0
                     : 1);
  }
  std::vector<std::size_t> cpu_in_run(n, 0);  // run members on the CPU

  // Incumbent: the HCS+ seed, returned unless some leaf is strictly better.
  Schedule best_schedule = HcsPlusScheduler().plan(view);
  Seconds best = evaluator.makespan(best_schedule);
  // One leaf schedule, refilled in place at every leaf.
  Schedule leaf;
  leaf.model_dvfs = true;

  nodes_ = 0;
  bound_prunes_ = 0;
  dominance_prunes_ = 0;
  leaves_ = 0;
  incumbent_updates_ = 0;
  IncrementalBound::Cursor cur = bound_model.cursor();

  // Depth-first search in canonical order: the node at depth d decides job
  // d, GPU child first.
  auto visit = [&](auto&& self) -> void {
    ++nodes_;
    // Strict test: the bound is admissible, so a pruned node holds only
    // leaves strictly worse than the incumbent; an equal leaf is never cut.
    if (cur.bound() > best) {
      ++bound_prunes_;
      return;
    }
    const std::size_t job = cur.depth();
    if (job == n) {
      ++leaves_;
      leaf.cpu.clear();
      leaf.gpu.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (cur.device_at(i) == sim::DeviceKind::kCpu) {
          leaf.cpu.push_back({i, level_cpu[i]});
        } else {
          leaf.gpu.push_back({i, level_gpu[i]});
        }
      }
      // Only a strictly better leaf replaces the incumbent, so its
      // evaluation stops at the incumbent's makespan.
      const Seconds makespan = evaluator.makespan(leaf, best);
      if (makespan < best) {
        best = makespan;
        best_schedule = leaf;
        ++incumbent_updates_;
      }
      return;
    }
    if (t_gpu[job] < 1e18) {
      // Equivalence dominance: with an earlier member k of this job's run
      // on the CPU, every leaf below the GPU child has a twin — k on the
      // GPU, this job on the CPU — that comes earlier in canonical order
      // with a bit-identical makespan, so no leaf here can be the first
      // minimum. Run members share feasibility, so the twin exists.
      if (cpu_in_run[run_id[job]] > 0) {
        ++dominance_prunes_;
      } else {
        cur.push(job, sim::DeviceKind::kGpu);
        self(self);
        cur.pop();
      }
    }
    if (t_cpu[job] < 1e18) {
      cur.push(job, sim::DeviceKind::kCpu);
      ++cpu_in_run[run_id[job]];
      self(self);
      --cpu_in_run[run_id[job]];
      cur.pop();
    }
  };
  visit(visit);

  pruned_ = bound_prunes_ + dominance_prunes_;
  CORUN_TRACE_COUNTER("bnb.nodes", nodes_);
  CORUN_TRACE_COUNTER("bnb.pruned", pruned_);
  CORUN_TRACE_COUNTER("bnb.bound_prunes", bound_prunes_);
  CORUN_TRACE_COUNTER("bnb.dominance_prunes", dominance_prunes_);
  CORUN_TRACE_COUNTER("bnb.leaves", leaves_);
  CORUN_TRACE_COUNTER("bnb.incumbent_updates", incumbent_updates_);

  // Polish the winning placement's per-device order.
  Schedule refined = Refiner().refine(view, best_schedule);
  if (evaluator.makespan(refined, best) < best) {
    best_schedule = std::move(refined);
  }

  best_schedule.validate(n);
  return best_schedule;
}

}  // namespace corun::sched
