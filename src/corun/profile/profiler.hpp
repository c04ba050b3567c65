// Offline profiler: sweeps each batch job standalone over device and
// frequency level on the simulator and fills a ProfileDB — the role the
// paper's offline profiling stage plays (Sec. V-C notes lightweight online
// estimators could substitute; the scheduler only consumes the DB interface).
#pragma once

#include <cstdint>
#include <vector>

#include "corun/profile/profile_db.hpp"
#include "corun/sim/backend.hpp"
#include "corun/sim/machine.hpp"
#include "corun/workload/batch.hpp"

namespace corun::profile {

struct ProfilerOptions {
  std::uint64_t seed = 42;
  /// Machine backend the measurements run on (analytic: much faster
  /// sweeps, within the tolerance engine.hpp states).
  sim::BackendSpec backend = sim::default_backend_spec();
  /// When set, only these CPU levels are profiled (plus the max level);
  /// empty = every level. Same for GPU. Sub-sampling keeps large sweeps
  /// cheap; the interpolating model tolerates gaps.
  std::vector<sim::FreqLevel> cpu_levels;
  std::vector<sim::FreqLevel> gpu_levels;
};

class Profiler {
 public:
  Profiler(sim::MachineConfig config, ProfilerOptions options = {});

  /// Standalone measurement of one spec at one operating point.
  [[nodiscard]] ProfileEntry profile_one(const sim::JobSpec& spec,
                                         sim::DeviceKind device,
                                         sim::FreqLevel level) const;

  /// Full sweep over a batch: every job x both devices x level set. Also
  /// measures and stores the idle package power.
  [[nodiscard]] ProfileDB profile_batch(const workload::Batch& batch) const;

  /// Idle package power (no jobs resident).
  [[nodiscard]] Watts measure_idle_power() const;

  [[nodiscard]] const sim::MachineConfig& machine() const noexcept {
    return config_;
  }

 private:
  [[nodiscard]] std::vector<sim::FreqLevel> level_set(sim::DeviceKind d) const;

  sim::MachineConfig config_;
  ProfilerOptions options_;
};

}  // namespace corun::profile
