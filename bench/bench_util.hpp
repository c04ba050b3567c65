// Shared plumbing for the per-figure benchmark harnesses: standard banner,
// artifact construction (with the paper's full frequency ladders and 11x11
// grid by default), and small formatting helpers.
#pragma once

#include <string>

#include "corun/common/table.hpp"
#include "corun/core/runtime/experiment.hpp"
#include "corun/sim/machine.hpp"
#include "corun/workload/batch.hpp"

namespace corun::bench {

/// Prints the figure banner ("=== Fig. 10 ... ===") with the paper context.
void banner(const std::string& figure, const std::string& description);

/// Full-fidelity artifacts: every frequency level profiled, 11-level grid.
/// Matches the paper's offline stage.
runtime::ModelArtifacts full_artifacts(const sim::MachineConfig& config,
                                       const workload::Batch& batch,
                                       std::uint64_t seed = 42);

/// Reduced artifacts for quick iterations (4 levels/device, 4x4 grid).
runtime::ModelArtifacts quick_artifacts(const sim::MachineConfig& config,
                                        const workload::Batch& batch,
                                        std::uint64_t seed = 42);

/// True when the harness should run in reduced fidelity (env CORUN_QUICK=1).
bool quick_mode();

/// Applies the CORUN_JOBS environment variable (unset or 0 = one worker per
/// hardware thread) to the library task pool and returns the resolved
/// worker count; a value that is not an unsigned integer (parse_number)
/// exits with status 2. Called by banner(), so every harness honours it.
std::size_t init_jobs();

/// Formats "12.3%".
std::string pct(double fraction);

}  // namespace corun::bench
