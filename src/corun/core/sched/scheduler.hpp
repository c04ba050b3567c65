// Scheduler interface and the shared planning context.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/sched/schedule.hpp"
#include "corun/sim/governor.hpp"
#include "corun/workload/batch.hpp"

namespace corun::sched {

/// Everything a scheduling algorithm may consult while planning. The
/// predictor is the only window onto performance/power — schedulers never
/// see the simulator's ground truth, exactly as the paper's runtime never
/// sees the future.
struct SchedulerContext {
  const workload::Batch* batch = nullptr;
  const model::CoRunPredictor* predictor = nullptr;
  std::optional<Watts> cap;
  sim::GovernorPolicy policy = sim::GovernorPolicy::kGpuBiased;

  [[nodiscard]] const workload::Batch& jobs() const;
  [[nodiscard]] const model::CoRunPredictor& model() const;
  [[nodiscard]] std::string job_name(std::size_t i) const;
  [[nodiscard]] std::vector<std::string> job_names() const;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Computes a schedule for the context's batch. Implementations must
  /// return a schedule that passes Schedule::validate.
  [[nodiscard]] virtual Schedule plan(const SchedulerContext& ctx) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace corun::sched
