#include "corun/sim/telemetry.hpp"

#include <algorithm>

namespace corun::sim {

void Telemetry::record_sample(const PowerSample& sample, Watts cap,
                              bool cap_active) {
  samples_.push_back(sample);
  ++cap_stats_.samples;
  if (cap_active && sample.true_power > cap) {
    ++cap_stats_.over_cap;
    cap_stats_.worst_overshoot =
        std::max(cap_stats_.worst_overshoot, sample.true_power - cap);
  }
}

void Telemetry::record_tick(Seconds dt, Watts true_power, bool cpu_busy,
                            bool gpu_busy, Watts cap, bool cap_active) {
  elapsed_ += dt;
  energy_ += true_power * dt;
  if (cpu_busy) cpu_busy_ += dt;
  if (gpu_busy) gpu_busy_ += dt;
  if (cap_active && true_power > cap) cap_stats_.time_over_cap += dt;
}

void Telemetry::clear() {
  samples_.clear();
  thermal_samples_.clear();
  thermal_stats_ = ThermalStats{};
  cap_stats_ = CapViolationStats{};
  energy_ = 0.0;
  cpu_busy_ = 0.0;
  gpu_busy_ = 0.0;
  elapsed_ = 0.0;
}

}  // namespace corun::sim
