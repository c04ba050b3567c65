// HCS — the paper's heuristic co-scheduling algorithm (Sec. IV-A).
//
// Three steps, each with the power-cap-aware variant of Sec. IV-A.2:
//  1. Partition jobs into S_co (can benefit from co-running with someone,
//     per the Co-Run Theorem, traversing cap-feasible frequency pairs) and
//     S_seq (always better off alone).
//  2. Categorize S_co into CPU-preferred / GPU-preferred / non-preferred
//     using the execution times at the highest cap-feasible frequency and
//     a threshold D (20% by default).
//  3. Greedy placement: seed the GPU with the longest GPU-preferred job,
//     then repeatedly give the freeing device the candidate (in preference
//     order) with the least predicted co-run interference against the job
//     running on the other device, choosing cap-feasible frequencies.
//  Finally S_seq jobs run solo on their best device.
#pragma once

#include <cstdint>
#include <vector>

#include "corun/core/sched/plan_view.hpp"
#include "corun/core/sched/scheduler.hpp"

namespace corun::sched {

/// Processor preference classes of step 2.
enum class Preference { kCpu, kGpu, kNone };

[[nodiscard]] const char* preference_name(Preference p) noexcept;

struct HcsOptions {
  /// Threshold D of step 2: relative CPU/GPU time difference above which a
  /// job is considered to prefer its faster device.
  double preference_threshold = 0.20;

  /// Ablation knob: disable step 1 (every job joins S_co).
  bool use_theorem_partition = true;

  /// Ablation knob: pick co-run frequency pairs by the literal
  /// minimum-degradation criterion instead of minimum pair makespan.
  bool min_degradation_freq = false;
};

/// One placement decision of the greedy step, for explainability.
struct PairingDecision {
  sim::DeviceKind device = sim::DeviceKind::kCpu;
  std::size_t job = 0;
  Preference tier = Preference::kNone;     ///< tier the job was drawn from
  std::optional<std::size_t> partner;      ///< job on the other device, if any
  double degradation_sum = 0.0;            ///< predicted pair interference
  sim::FreqLevel level = 0;                ///< operating level at assignment
  Seconds predicted_start = 0.0;           ///< planner-clock start time
};

/// Full decision trace of one plan() run: why each job landed where it did.
struct HcsTrace {
  std::vector<bool> in_corun;              ///< step-1 partition (S_co flags)
  std::vector<Preference> preference;      ///< step-2 classes
  std::vector<PairingDecision> decisions;  ///< step-3 assignments, in order

  /// Multi-line human-readable rendering.
  [[nodiscard]] std::string to_string(
      const std::vector<std::string>& job_names) const;
};

class HcsScheduler : public Scheduler {
 public:
  explicit HcsScheduler(HcsOptions options = {});

  [[nodiscard]] Schedule plan(const SchedulerContext& ctx) override;

  /// plan() that also records the decision trace (pass nullptr to skip).
  [[nodiscard]] Schedule plan_traced(const SchedulerContext& ctx,
                                     HcsTrace* trace);
  /// plan_traced() through a plan's view.
  [[nodiscard]] Schedule plan_traced(const PlanView& view, HcsTrace* trace);

  [[nodiscard]] std::string name() const override { return "HCS"; }

  // --- exposed steps (unit-testable in isolation, through a plan's view) ---

  /// Step 1: true at index i iff job i belongs to S_co.
  [[nodiscard]] std::vector<bool> corun_partition(const PlanView& view) const;

  /// Step 2: preference class of one job.
  [[nodiscard]] Preference categorize(const PlanView& view,
                                      std::size_t job) const;

  /// Whether jobs i and j can profitably co-run in any placement at any
  /// cap-feasible frequency pair (the theorem test of step 1).
  [[nodiscard]] bool pair_beneficial(const PlanView& view, std::size_t i,
                                     std::size_t j) const;

 private:
  [[nodiscard]] std::optional<model::FreqPair> choose_pair(
      const PlanView& view, std::size_t cpu_job, std::size_t gpu_job) const;

  HcsOptions options_;
};

}  // namespace corun::sched
