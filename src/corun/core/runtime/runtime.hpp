// CoRunRuntime: executes a schedule on the simulated machine.
//
// This is the prototype co-scheduling runtime of the paper's Sec. I
// ("We integrate the techniques into a prototype co-scheduling runtime"):
// it takes a planned schedule, drives the two devices' job sequences,
// re-applies the scheduled frequency pair whenever the running set changes,
// and leaves residual cap enforcement to the reactive governor. All three
// schedule shapes are supported — two sequences (+ solo tail), the Default
// baseline's batch-launched CPU partition, and the Random baseline's shared
// pull queue.
#pragma once

#include <optional>

#include <string>

#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/runtime/report.hpp"
#include "corun/core/sched/schedule.hpp"
#include "corun/sim/backend.hpp"
#include "corun/sim/engine.hpp"
#include "corun/sim/machine.hpp"
#include "corun/workload/batch.hpp"

namespace corun::runtime {

struct RuntimeOptions {
  std::optional<Watts> cap;
  sim::GovernorPolicy policy = sim::GovernorPolicy::kGpuBiased;
  std::uint64_t seed = 42;
  Seconds sample_interval = 1.0;  ///< power-trace cadence
  bool record_power_trace = true;
  /// Engage the RC thermal model + throttle governor (docs/thermal.md).
  bool thermal = sim::default_thermal();

  /// Machine backend executing the schedule (tick/event/analytic/replay).
  sim::BackendSpec backend = sim::default_backend_spec();
  /// When non-empty, run on a RecordingMachine of `backend` and write the
  /// per-phase demand trace (demand_trace.hpp CSV) here after execution.
  /// A replay backend cannot be recorded (ContractViolation).
  std::string record_trace_path;

  /// Required to execute Schedule::model_dvfs schedules: the runtime
  /// re-derives the operating point for each new pairing from this model
  /// (must outlive the runtime). Null is fine for fixed-level schedules.
  const model::CoRunPredictor* predictor = nullptr;
};

class CoRunRuntime {
 public:
  CoRunRuntime(sim::MachineConfig config, RuntimeOptions options);

  /// Runs `schedule` over `batch` to completion and reports ground truth.
  [[nodiscard]] ExecutionReport execute(const workload::Batch& batch,
                                        const sched::Schedule& schedule) const;

  [[nodiscard]] const sim::MachineConfig& machine() const noexcept {
    return config_;
  }
  [[nodiscard]] const RuntimeOptions& options() const noexcept {
    return options_;
  }

 private:
  [[nodiscard]] sim::EngineOptions engine_options() const;

  sim::MachineConfig config_;
  RuntimeOptions options_;
};

}  // namespace corun::runtime
