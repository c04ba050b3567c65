// Analytic schedule replay under the predictive model.
//
// Replays a schedule's two sequences as a piecewise-constant-rate system:
// between job completions the running pair degrades at the model-predicted
// rates; at each completion the next job starts and rates change (the
// general form of the Sec. IV-B partial-overlap correction). Frequency pairs
// that would break the power cap are stepped down exactly the way the
// runtime governor would, so predicted and executed schedules see the same
// operating points.
//
// This evaluator is what makes post refinement cheap: trying a swap costs a
// replay (O(n) queries through the plan's job handles, no allocation), not
// a simulation.
#pragma once

#include <optional>
#include <vector>

#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/sched/plan_view.hpp"
#include "corun/core/sched/schedule.hpp"
#include "corun/core/sched/scheduler.hpp"

namespace corun::sched {

/// One interval of the predicted timeline with a fixed running set.
struct EvalSegment {
  Seconds start = 0.0;
  Seconds end = 0.0;
  std::optional<std::size_t> cpu_job;
  std::optional<std::size_t> gpu_job;
  model::FreqPair levels;
  double cpu_degradation = 0.0;
  double gpu_degradation = 0.0;
};

struct Evaluation {
  Seconds makespan = 0.0;
  std::vector<Seconds> finish_time;  ///< indexed by batch position
  std::vector<EvalSegment> timeline;
};

/// Replays schedules through a PlanView's job handles, reusing its scratch
/// storage: one evaluator serves one thread.
class MakespanEvaluator {
 public:
  /// Resolves the context's batch into a view of its own.
  explicit MakespanEvaluator(const SchedulerContext& ctx);
  /// Queries through a plan's view, sharing its per-plan memos.
  explicit MakespanEvaluator(const PlanView& view);
  MakespanEvaluator(const MakespanEvaluator&) = delete;
  MakespanEvaluator& operator=(const MakespanEvaluator&) = delete;

  /// Predicts the full execution of `schedule` (which must validate against
  /// the context's batch). Supports per-device sequences, the solo tail and
  /// shared-queue schedules; cpu_batch_launch is approximated by appending
  /// a time-sharing penalty (the ground truth for Default comes from the
  /// simulator, not from here).
  [[nodiscard]] Evaluation evaluate(const Schedule& schedule) const;

  /// The makespan evaluate() predicts, without recording the timeline.
  [[nodiscard]] Seconds makespan(const Schedule& schedule) const;

  /// makespan(), stopped once the predicted clock reaches `limit`: below
  /// `limit` the answer is the makespan, otherwise some value >= limit.
  /// The clock only rises, so a caller that accepts only makespans
  /// strictly below its incumbent passes the incumbent and loses nothing.
  [[nodiscard]] Seconds makespan(const Schedule& schedule, Seconds limit) const;

 private:
  /// The replay behind all three entry points; records finish times and
  /// the timeline into `out` when it is non-null.
  Seconds replay(const Schedule& schedule, Seconds limit,
                 Evaluation* out) const;

  /// Steps the pair's levels down (mirroring the governor's policy order)
  /// until the predicted power fits the cap.
  [[nodiscard]] model::FreqPair enforce_cap(
      std::optional<std::size_t> cpu_job, std::optional<std::size_t> gpu_job,
      model::FreqPair levels) const;

  std::optional<PlanView> own_view_;
  const PlanView& view_;
  mutable std::vector<int> seen_;  ///< Schedule::validate's scratch
};

}  // namespace corun::sched
