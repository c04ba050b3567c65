// Online (sampled) profiling — the practical deployment path of Sec. V-C.
//
// The paper uses full offline profiles "to assess the full capability of
// the proposed co-scheduling algorithm", noting that in practice standalone
// performance and power can be estimated on the fly by lightweight sampling
// methods. This class is that alternative: run each job for a short window
// at a sparse set of frequency levels, extrapolate the full runtime from
// the progress fraction, and take bandwidth and power from the window.
//
// Estimates are biased by whatever phases the window happens to see —
// exactly the accuracy/overhead trade-off the paper alludes to. The
// ablation bench quantifies the schedule-quality cost of using these
// estimates instead of full profiles.
#pragma once

#include <cstdint>
#include <vector>

#include "corun/profile/profile_db.hpp"
#include "corun/sim/backend.hpp"
#include "corun/sim/machine.hpp"
#include "corun/workload/batch.hpp"

namespace corun::profile {

struct OnlineProfilerOptions {
  Seconds sample_seconds = 3.0;  ///< per (job, device, level) sampling window
  /// Sparse level sets (the CoRunPredictor interpolates the gaps). The max
  /// level is always included.
  std::vector<sim::FreqLevel> cpu_levels{0, 8};
  std::vector<sim::FreqLevel> gpu_levels{0, 5};
  std::uint64_t seed = 42;
  /// Machine backend the sampling windows run on.
  sim::BackendSpec backend = sim::default_backend_spec();
};

class OnlineProfiler {
 public:
  OnlineProfiler(sim::MachineConfig config, OnlineProfilerOptions options = {});

  /// One sampled estimate: runs the job standalone for the sampling window
  /// and extrapolates. Jobs shorter than the window are measured exactly.
  [[nodiscard]] ProfileEntry sample_one(const sim::JobSpec& spec,
                                        sim::DeviceKind device,
                                        sim::FreqLevel level) const;

  /// Estimated ProfileDB for a batch (plus the exact idle-power
  /// measurement, which is cheap either way).
  [[nodiscard]] ProfileDB profile_batch(const workload::Batch& batch) const;

  /// Total simulated seconds the sampling would occupy the machine for —
  /// the "profiling overhead" an online deployment pays.
  [[nodiscard]] Seconds sampling_cost(const workload::Batch& batch) const;

 private:
  [[nodiscard]] std::vector<sim::FreqLevel> level_set(sim::DeviceKind d) const;

  sim::MachineConfig config_;
  OnlineProfilerOptions options_;
};

}  // namespace corun::profile
