#include "corun/core/sched/exhaustive.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>

#include "corun/common/check.hpp"
#include "corun/common/task_pool.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"

namespace corun::sched {

ExhaustiveScheduler::ExhaustiveScheduler(std::size_t max_jobs)
    : max_jobs_(max_jobs) {}

Schedule ExhaustiveScheduler::plan(const SchedulerContext& ctx) {
  CORUN_TRACE_SPAN("sched", "exhaustive.plan");
  const std::size_t n = ctx.jobs().size();
  CORUN_CHECK_MSG(n <= max_jobs_,
                  "exhaustive search limited to " + std::to_string(max_jobs_) +
                      " jobs");
  const sim::FreqLevel cpu_max = ctx.model().machine().cpu_ladder.max_level();
  const sim::FreqLevel gpu_max = ctx.model().machine().gpu_ladder.max_level();

  // Device assignments (bit set = GPU) are independent subproblems: one
  // task per mask enumerates all orders of each side serially, exactly as
  // the serial loop nest did. Per-mask winners are reduced in ascending
  // mask order with a strict improvement test, which reproduces the serial
  // first-strictly-better tie-breaking bit for bit.
  struct MaskBest {
    Seconds makespan = std::numeric_limits<Seconds>::infinity();
    Schedule schedule;
    std::size_t evaluated = 0;
  };
  const std::size_t masks = 1ull << n;
  std::vector<MaskBest> per_mask(masks);
  common::TaskPool::shared().parallel_for_index(masks, [&](std::size_t mask) {
    // An evaluator reuses its scratch, so each task replays with its own.
    const MakespanEvaluator evaluator(ctx);
    MaskBest local;
    std::vector<std::size_t> cpu_jobs;
    std::vector<std::size_t> gpu_jobs;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1ull << i)) {
        gpu_jobs.push_back(i);
      } else {
        cpu_jobs.push_back(i);
      }
    }
    std::sort(cpu_jobs.begin(), cpu_jobs.end());
    do {
      std::vector<std::size_t> gpu_perm = gpu_jobs;
      std::sort(gpu_perm.begin(), gpu_perm.end());
      do {
        Schedule candidate;
        for (const std::size_t job : cpu_jobs) {
          candidate.cpu.push_back({job, cpu_max});
        }
        for (const std::size_t job : gpu_perm) {
          candidate.gpu.push_back({job, gpu_max});
        }
        // Only a strict improvement is kept, so the replay stops at the
        // mask's incumbent.
        const Seconds makespan = evaluator.makespan(candidate, local.makespan);
        ++local.evaluated;
        if (makespan < local.makespan) {
          local.makespan = makespan;
          local.schedule = std::move(candidate);
        }
      } while (std::next_permutation(gpu_perm.begin(), gpu_perm.end()));
    } while (std::next_permutation(cpu_jobs.begin(), cpu_jobs.end()));
    per_mask[mask] = std::move(local);
  });

  evaluated_ = 0;
  Schedule best;
  Seconds best_makespan = std::numeric_limits<Seconds>::infinity();
  for (MaskBest& candidate : per_mask) {
    evaluated_ += candidate.evaluated;
    if (candidate.makespan < best_makespan) {
      best_makespan = candidate.makespan;
      best = std::move(candidate.schedule);
    }
  }

  CORUN_TRACE_COUNTER("exhaustive.evaluated", evaluated_);

  best.validate(n);
  return best;
}

}  // namespace corun::sched
