// Device-portable kernel descriptions.
//
// A KernelDescriptor is the workload layer's "source code": how the program
// behaves on each device when compiled for it (standalone time at max
// frequency, average compute fraction, memory appetite). `make_job_spec`
// plays the role of the device compiler, lowering the descriptor into the
// phase traces the simulator executes; the runtimes launch the resulting
// sim::JobSpec on sim::Engine.
#pragma once

#include <string>
#include <vector>

#include "corun/sim/job.hpp"
#include "corun/workload/phase_trace.hpp"

namespace corun::workload {

/// Behaviour of a kernel on one device.
struct DeviceCharacter {
  Seconds base_time = 20.0;  ///< standalone time at device max frequency
  double compute_frac = 0.5; ///< average core-bound fraction at max frequency
  GBps mem_bw = 6.0;         ///< offered bandwidth during memory portions
  double llc_footprint_mb = 0.0;  ///< live working set in the shared LLC
  double llc_sensitivity = 0.0;   ///< extra slowdown when fully evicted
};

struct KernelDescriptor {
  std::string name;
  DeviceCharacter cpu;
  DeviceCharacter gpu;
  unsigned phase_count = 14;
  double phase_variability = 0.25;
  double input_scale = 1.0;     ///< scales base times (different input sizes)

  /// Standalone time at max frequency on `d`, including input scaling.
  [[nodiscard]] Seconds base_time(sim::DeviceKind d) const noexcept {
    const DeviceCharacter& c = d == sim::DeviceKind::kCpu ? cpu : gpu;
    return c.base_time * input_scale;
  }

  [[nodiscard]] const DeviceCharacter& character(sim::DeviceKind d) const noexcept {
    return d == sim::DeviceKind::kCpu ? cpu : gpu;
  }
};

/// Lowers a descriptor into per-device phase traces. The same seed always
/// produces the same program; distinct seeds model distinct inputs.
[[nodiscard]] sim::JobSpec make_job_spec(const KernelDescriptor& desc,
                                         std::uint64_t seed);

/// Bounds for random workload synthesis (fuzzing, stress batches).
struct RandomWorkloadParams {
  Seconds min_time = 15.0;
  Seconds max_time = 80.0;
  double max_device_skew = 2.6;  ///< max ratio between CPU and GPU times
  GBps max_mem_bw = 11.0;
  double max_llc_sensitivity = 0.9;
};

/// Synthesizes a random but internally consistent kernel descriptor: device
/// times within the skew bound, compute fraction anti-correlated with
/// memory appetite, CPU cache sensitivity above the GPU's. Deterministic in
/// the rng state.
[[nodiscard]] KernelDescriptor random_descriptor(Rng& rng,
                                                 const std::string& name,
                                                 const RandomWorkloadParams&
                                                     params = {});

}  // namespace corun::workload
