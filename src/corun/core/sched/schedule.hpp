// Schedule representation shared by all scheduling algorithms.
//
// A schedule is (Definition 2.1): two mutually exclusive job sequences, one
// per device, each job carrying the frequency level its device should run at
// while it executes, plus an optional tail of jobs that run *alone* (the
// Co-Run Theorem can conclude a job is better off solo). The Default
// baseline additionally launches its whole CPU partition at once and lets
// the OS time-share it — `cpu_batch_launch` preserves that semantic.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "corun/common/expected.hpp"
#include "corun/sim/frequency.hpp"

namespace corun::sched {

/// One job placed on a device within the co-run phase.
struct ScheduledJob {
  std::size_t job = 0;         ///< index into the Batch
  sim::FreqLevel level = 0;    ///< device frequency while this job runs
};

/// One job that runs with the other device idle.
struct SoloJob {
  std::size_t job = 0;
  sim::DeviceKind device = sim::DeviceKind::kCpu;
  sim::FreqLevel level = 0;
};

struct Schedule {
  std::vector<ScheduledJob> cpu;  ///< CPU execution order
  std::vector<ScheduledJob> gpu;  ///< GPU execution order
  std::vector<SoloJob> solo;      ///< executed after both sequences drain

  /// Default-baseline semantic: launch every CPU job at t=0 and time-share.
  bool cpu_batch_launch = false;

  /// Random-baseline semantic (Sec. VI-A): one fixed order; whichever device
  /// idles next pulls the head job. When set, `cpu`/`gpu` must be empty and
  /// `shared` holds the order.
  bool shared_queue = false;
  std::vector<ScheduledJob> shared;

  /// Model-driven DVFS (the HCS runtime semantic): whenever the running set
  /// changes, the executor re-derives the best cap-feasible frequency pair
  /// for the *current* pairing from the predictive model, instead of using
  /// the per-job levels below (which then serve only as documentation /
  /// fallback). This is what lets a power budget be re-split as partners
  /// come and go — a single static level per job cannot express that.
  bool model_dvfs = false;

  [[nodiscard]] std::size_t job_count() const noexcept {
    return cpu.size() + gpu.size() + solo.size() + shared.size();
  }

  /// Throws ContractViolation unless every batch index in [0, batch_size)
  /// appears exactly once across the three lists.
  void validate(std::size_t batch_size) const;
  /// validate() counting in the caller's `seen`, so a caller that checks
  /// many schedules allocates once.
  void validate(std::size_t batch_size, std::vector<int>& seen) const;

  /// Human-readable one-line-per-device rendering for logs and examples.
  [[nodiscard]] std::string to_string(
      const std::vector<std::string>& job_names) const;
};

/// CSV round trip for schedules, so corun-schedule's plan can be saved and
/// handed to corun-run without replanning. Jobs are referenced by instance
/// name (resolved against `job_names` on load). Schema:
///   flags,<cpu_batch_launch>,<shared_queue>,<model_dvfs>
///   entry,<cpu|gpu|solo|shared>,<position>,<job name>,<level>,<device|->
void schedule_to_csv(const Schedule& schedule,
                     const std::vector<std::string>& job_names,
                     std::ostream& out);
[[nodiscard]] Expected<Schedule> schedule_from_csv(
    const std::string& text, const std::vector<std::string>& job_names);

}  // namespace corun::sched
