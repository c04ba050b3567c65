// Execution telemetry recorded by the engine: RAPL-style power samples,
// energy integration, cap-violation accounting, and per-device utilization.
// The Fig. 8/9 experiments read these records directly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "corun/common/units.hpp"
#include "corun/sim/frequency.hpp"

namespace corun::sim {

/// One sampled observation of the package power sensor.
struct PowerSample {
  Seconds t = 0.0;
  Watts measured = 0.0;   ///< sensor reading (true power + noise)
  Watts true_power = 0.0; ///< model ground truth
  FreqLevel cpu_level = 0;
  FreqLevel gpu_level = 0;
  GBps cpu_bw = 0.0;      ///< achieved bandwidths at sample time
  GBps gpu_bw = 0.0;
};

/// Aggregated cap-violation statistics over a run.
struct CapViolationStats {
  std::size_t samples = 0;       ///< total power samples taken
  std::size_t over_cap = 0;      ///< samples with true power above the cap
  Watts worst_overshoot = 0.0;   ///< max (true - cap) observed
  Seconds time_over_cap = 0.0;   ///< integrated time above the cap

  [[nodiscard]] double over_fraction() const noexcept {
    return samples == 0 ? 0.0
                        : static_cast<double>(over_cap) /
                              static_cast<double>(samples);
  }
};

/// One sampled observation of the thermal state. Recorded beside every
/// PowerSample when the thermal model is enabled (same cadence, equal
/// lengths — zip by index); empty when thermal is off.
struct ThermalSample {
  Seconds t = 0.0;
  double cpu_c = 0.0;
  double gpu_c = 0.0;
  double package_c = 0.0;
  FreqLevel cpu_limit = 0;  ///< throttle-governor allowance at sample time
  FreqLevel gpu_limit = 0;
};

/// Aggregated thermal statistics over a run. All zero when thermal is off.
struct ThermalStats {
  double peak_cpu_c = 0.0;
  double peak_gpu_c = 0.0;
  double peak_package_c = 0.0;
  /// Integrated time with a throttle allowance below a domain ceiling.
  Seconds throttled_time = 0.0;
  std::uint64_t trips = 0;     ///< throttle down-steps taken
  std::uint64_t releases = 0;  ///< allowance up-steps taken
};

/// Accumulating recorder; owned by the engine, readable by callers.
class Telemetry {
 public:
  /// The sums every tick adds to. The engine's replay loop copies them out
  /// for a window, adds each replayed tick to the copy exactly as
  /// record_tick would (one += per tick, never a closed-form `ticks * dt`,
  /// which would round differently) and stores them back.
  struct TickSums {
    Seconds elapsed = 0.0;
    Joules energy = 0.0;
    Seconds cpu_busy = 0.0;
    Seconds gpu_busy = 0.0;
    Seconds over_cap = 0.0;  ///< CapViolationStats::time_over_cap
  };

  void record_sample(const PowerSample& sample, Watts cap, bool cap_active);
  void record_tick(Seconds dt, Watts true_power, bool cpu_busy, bool gpu_busy,
                   Watts cap, bool cap_active);

  [[nodiscard]] TickSums tick_sums() const noexcept {
    return {elapsed_, energy_, cpu_busy_, gpu_busy_, cap_stats_.time_over_cap};
  }
  void set_tick_sums(const TickSums& sums) noexcept {
    elapsed_ = sums.elapsed;
    energy_ = sums.energy;
    cpu_busy_ = sums.cpu_busy;
    gpu_busy_ = sums.gpu_busy;
    cap_stats_.time_over_cap = sums.over_cap;
  }

  void record_thermal_sample(const ThermalSample& sample) {
    thermal_samples_.push_back(sample);
  }
  /// Per-tick thermal accounting: peak tracking and throttled-time
  /// integration. Called once per tick by every stepping mode with the same
  /// post-advance temperatures, so the aggregates are mode-identical.
  void note_thermal_tick(double cpu_c, double gpu_c, double package_c,
                         bool throttled, Seconds dt) noexcept {
    thermal_stats_.peak_cpu_c = std::max(thermal_stats_.peak_cpu_c, cpu_c);
    thermal_stats_.peak_gpu_c = std::max(thermal_stats_.peak_gpu_c, gpu_c);
    thermal_stats_.peak_package_c =
        std::max(thermal_stats_.peak_package_c, package_c);
    if (throttled) thermal_stats_.throttled_time += dt;
  }
  void note_thermal_trip() noexcept { ++thermal_stats_.trips; }
  void note_thermal_release() noexcept { ++thermal_stats_.releases; }

  [[nodiscard]] const std::vector<PowerSample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] const std::vector<ThermalSample>& thermal_samples()
      const noexcept {
    return thermal_samples_;
  }
  [[nodiscard]] const ThermalStats& thermal_stats() const noexcept {
    return thermal_stats_;
  }
  [[nodiscard]] const CapViolationStats& cap_stats() const noexcept {
    return cap_stats_;
  }
  [[nodiscard]] Joules energy() const noexcept { return energy_; }
  [[nodiscard]] Seconds cpu_busy_time() const noexcept { return cpu_busy_; }
  [[nodiscard]] Seconds gpu_busy_time() const noexcept { return gpu_busy_; }
  [[nodiscard]] Seconds elapsed() const noexcept { return elapsed_; }
  [[nodiscard]] Watts avg_power() const noexcept {
    return elapsed_ > 0.0 ? energy_ / elapsed_ : 0.0;
  }

  void clear();

 private:
  std::vector<PowerSample> samples_;
  std::vector<ThermalSample> thermal_samples_;
  ThermalStats thermal_stats_;
  CapViolationStats cap_stats_;
  Joules energy_ = 0.0;
  Seconds cpu_busy_ = 0.0;
  Seconds gpu_busy_ = 0.0;
  Seconds elapsed_ = 0.0;
};

}  // namespace corun::sim
