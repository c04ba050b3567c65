// Fine-grained kernel-level scheduling — the future-work direction of
// Sec. II.
//
// The paper schedules whole jobs ("the collection of all its kernels") and
// explicitly defers per-kernel placement, citing two obstacles: data
// partitioning/communication costs, and prior evidence (their ref. [31])
// that naive splitting often loses to single-device execution. On an
// integrated chip, however, the handoff between devices is a cache-visible
// zero-copy — cheap — so jobs whose *stages* have opposing device
// preferences should benefit.
//
// This module makes the question concrete:
//   - MultiKernelJob: an ordered chain of kernels with sequential data
//     dependencies (kernel i+1 consumes kernel i's output).
//   - StagePlacement: a device per stage; cross-device transitions pay a
//     handoff cost (synchronization + cold-cache refill).
//   - KernelSplitPlanner: exhaustive placement search (2^k for k stages,
//     with k small in practice) under a power cap, with per-stage frequency
//     selection.
//   - execute_split: ground-truth execution of a placement on the engine,
//     optionally against a co-runner occupying the other device.
//
// The ext_kernel_split bench reproduces both sides of the paper's
// discussion: chains with alternating affinities gain substantially from
// splitting, while uniform chains lose to the handoff costs — [31]'s
// caution, quantified.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "corun/common/units.hpp"
#include "corun/sim/engine.hpp"
#include "corun/workload/kernel_descriptor.hpp"

namespace corun::ext {

/// A job made of sequentially dependent kernels.
struct MultiKernelJob {
  std::string name;
  std::vector<workload::KernelDescriptor> stages;

  [[nodiscard]] std::size_t stage_count() const noexcept {
    return stages.size();
  }
};

/// A device choice per stage.
struct StagePlacement {
  std::vector<sim::DeviceKind> device;

  /// Number of cross-device transitions (each pays the handoff cost).
  [[nodiscard]] std::size_t handoffs() const noexcept;

  /// All stages on one device?
  [[nodiscard]] bool is_whole_job() const noexcept;
};

/// Cost model for moving a chain across devices mid-job.
struct SplitOptions {
  /// Synchronization + kernel-launch latency per cross-device handoff.
  Seconds handoff_latency = 0.05;
  /// Cold-cache refill: the first fraction of the next stage runs with its
  /// memory phases stretched by this factor.
  double cold_start_penalty = 1.5;
  double cold_start_fraction = 0.05;
  std::uint64_t seed = 42;
};

/// Result of planning one multi-kernel job.
struct SplitPlan {
  StagePlacement placement;
  Seconds predicted_time = 0.0;     ///< standalone chain time
  Seconds whole_cpu_time = 0.0;     ///< best all-CPU alternative
  Seconds whole_gpu_time = 0.0;     ///< best all-GPU alternative
  std::size_t placements_searched = 0;

  /// Gain of the chosen placement over the better whole-job alternative.
  [[nodiscard]] double split_gain() const noexcept {
    const Seconds whole = std::min(whole_cpu_time, whole_gpu_time);
    return whole > 0.0 ? whole / predicted_time - 1.0 : 0.0;
  }
};

class KernelSplitPlanner {
 public:
  KernelSplitPlanner(sim::MachineConfig config, SplitOptions options = {});

  /// Exhaustive placement search for a standalone chain under `cap`.
  /// Per-stage times use the best cap-feasible solo frequency; handoff
  /// costs follow the options. Chains are short (<= 16 stages enforced).
  [[nodiscard]] SplitPlan plan(const MultiKernelJob& job,
                               std::optional<Watts> cap) const;

  /// Predicted standalone chain time for a specific placement.
  [[nodiscard]] Seconds predict(const MultiKernelJob& job,
                                const StagePlacement& placement,
                                std::optional<Watts> cap) const;

  [[nodiscard]] const SplitOptions& options() const noexcept {
    return options_;
  }

 private:
  /// Best cap-feasible standalone time of one stage on one device
  /// (simulator-measured, memoization-free: stages are short).
  [[nodiscard]] Seconds stage_time(const workload::KernelDescriptor& stage,
                                   sim::DeviceKind device,
                                   std::optional<Watts> cap) const;

  sim::MachineConfig config_;
  SplitOptions options_;
};

/// Ground truth: executes the chain with the given placement on the
/// engine (stages strictly sequential), optionally while `co_runner`
/// occupies whichever device the current stage does not use. Returns the
/// chain's completion time.
[[nodiscard]] Seconds execute_split(const sim::MachineConfig& config,
                                    const MultiKernelJob& job,
                                    const StagePlacement& placement,
                                    const SplitOptions& options,
                                    std::optional<Watts> cap,
                                    const sim::JobSpec* co_runner = nullptr,
                                    sim::DeviceKind co_runner_device =
                                        sim::DeviceKind::kGpu);

/// Convenience factories for the bench/tests: a chain with alternating
/// CPU/GPU-friendly stages, and a uniformly GPU-friendly chain.
[[nodiscard]] MultiKernelJob make_alternating_chain(std::size_t stages,
                                                    Seconds stage_seconds);
[[nodiscard]] MultiKernelJob make_uniform_gpu_chain(std::size_t stages,
                                                    Seconds stage_seconds);

}  // namespace corun::ext
