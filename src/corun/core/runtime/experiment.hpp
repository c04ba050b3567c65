// Experiment harness: the end-to-end pipeline the evaluation section runs.
//
//   profile batch -> characterize degradation space -> build predictor ->
//   plan with each scheduler -> execute on ground truth -> compare.
//
// Fig. 10 / Fig. 11 are exactly `run_comparison` on the 8- and 16-program
// batches with a 15 W cap.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/runtime/runtime.hpp"
#include "corun/core/sched/scheduler.hpp"
#include "corun/profile/profile_db.hpp"
#include "corun/workload/batch.hpp"

namespace corun::runtime {

/// The model inputs every experiment needs. Building them is the expensive
/// offline stage; they are reusable across schedulers and caps.
struct ModelArtifacts {
  profile::ProfileDB db;
  model::DegradationGrid grid;
};

struct ArtifactOptions {
  std::uint64_t seed = 42;
  /// Machine backend of every offline simulation (profiling sweep and
  /// degradation characterization alike).
  sim::BackendSpec backend = sim::default_backend_spec();
  /// Frequency sub-sampling for profiling (empty = every level).
  std::vector<sim::FreqLevel> cpu_levels;
  std::vector<sim::FreqLevel> gpu_levels;
  /// Degradation-grid axes (empty = the paper's 11 levels).
  std::vector<GBps> grid_axis;
};

/// Runs the offline stage on the simulator.
[[nodiscard]] ModelArtifacts build_artifacts(const sim::MachineConfig& config,
                                             const workload::Batch& batch,
                                             const ArtifactOptions& options = {});

/// Ground-truth result of one scheduling method.
struct MethodResult {
  std::string name;
  Seconds makespan = 0.0;
  double speedup_vs_random = 0.0;
  Seconds planning_seconds = 0.0;
  ExecutionReport report;
};

struct ComparisonOptions {
  std::optional<Watts> cap = 15.0;
  int random_seeds = 20;          ///< Random baseline repetitions (paper: 20)
  std::uint64_t seed = 42;
  sim::BackendSpec backend = sim::default_backend_spec();
  bool include_cpu_biased_default = true;
  bool record_power_traces = false;
};

struct ComparisonResult {
  Seconds random_mean_makespan = 0.0;
  std::vector<Seconds> random_makespans;
  std::vector<MethodResult> methods;  ///< Default_G, Default_C, HCS, HCS+
  Seconds lower_bound = 0.0;          ///< predicted optimal-makespan bound
  double bound_speedup_vs_random = 0.0;

  [[nodiscard]] const MethodResult& method(const std::string& name) const;
};

/// The full Fig. 10/11 experiment on one batch.
[[nodiscard]] ComparisonResult run_comparison(const sim::MachineConfig& config,
                                              const workload::Batch& batch,
                                              const ModelArtifacts& artifacts,
                                              const ComparisonOptions& options);

/// Plans with `scheduler` (timing the planning) and executes on ground truth.
[[nodiscard]] MethodResult run_method(const sim::MachineConfig& config,
                                      const workload::Batch& batch,
                                      const model::CoRunPredictor& predictor,
                                      sched::Scheduler& scheduler,
                                      const RuntimeOptions& rt_options,
                                      const std::optional<Watts>& cap);

}  // namespace corun::runtime
