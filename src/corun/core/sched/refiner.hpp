// Post local refinement (Sec. IV-A.3) — turns HCS into HCS+.
//
// Three linear-cost passes over a schedule, each keeping a change only when
// the predicted makespan improves:
//   1. adjacent-swap sweep along each device's sequence,
//   2. random same-device swaps,
//   3. random cross-device swaps (a job moves to the other processor and is
//      re-assigned its best cap-feasible level there).
#pragma once

#include <cstdint>

#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/plan_view.hpp"
#include "corun/core/sched/schedule.hpp"
#include "corun/core/sched/scheduler.hpp"

namespace corun::sched {

struct RefinerOptions {
  int random_swap_samples = 32;
  int cross_swap_samples = 32;
  std::uint64_t seed = 7;
};

struct RefinerStats {
  int adjacent_improvements = 0;
  int random_improvements = 0;
  int cross_improvements = 0;
  Seconds initial_makespan = 0.0;
  Seconds final_makespan = 0.0;
};

class Refiner {
 public:
  explicit Refiner(RefinerOptions options = {});

  /// Refines `schedule` in place semantics-free (returns the improved copy).
  [[nodiscard]] Schedule refine(const SchedulerContext& ctx,
                                Schedule schedule) const;
  /// refine() through a plan's view. Each trial evaluation stops at the
  /// incumbent makespan: only strict improvements are kept.
  [[nodiscard]] Schedule refine(const PlanView& view, Schedule schedule) const;

  /// Stats of the most recent refine() call.
  [[nodiscard]] const RefinerStats& last_stats() const noexcept {
    return stats_;
  }

 private:
  RefinerOptions options_;
  mutable RefinerStats stats_;
};

/// Convenience scheduler wrapper: HCS followed by refinement ("HCS+").
class HcsPlusScheduler : public Scheduler {
 public:
  explicit HcsPlusScheduler(RefinerOptions options = {});
  [[nodiscard]] Schedule plan(const SchedulerContext& ctx) override;
  /// HCS and the refiner, both through `view`.
  [[nodiscard]] Schedule plan(const PlanView& view);
  [[nodiscard]] std::string name() const override { return "HCS+"; }

 private:
  RefinerOptions options_;
};

}  // namespace corun::sched
