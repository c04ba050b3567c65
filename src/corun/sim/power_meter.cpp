#include "corun/sim/power_meter.hpp"

#include <algorithm>
#include <cmath>

#include "corun/common/check.hpp"

namespace corun::sim {

PowerMeter::PowerMeter(Rng rng, Watts noise_stddev)
    : rng_(rng), noise_stddev_(noise_stddev) {
  CORUN_CHECK(noise_stddev >= 0.0);
}

Watts PowerMeter::sample() const {
  const Watts noisy = noise_stddev_ > 0.0
                          ? power_ + Rng::polar_value(noise_, noise_stddev_)
                          : power_;
  return std::max(0.0, noisy);
}

bool PowerMeter::exceeds(Watts true_power, Watts cap) {
  draw(true_power);
  if (dropout_) return held_ > cap;
  if (noise_stddev_ > 0.0 && noise_.r2 > cap_bound(true_power, cap)) {
    return true_power > cap;
  }
  return sample() > cap;
}

double PowerMeter::settling_r2(Watts true_power, Watts cap,
                               Watts noise_stddev) {
  // Every polar draw has |noise| <= sigma * sqrt(-2 ln r2) (y^2 <= r2), so
  // a draw with r2 > exp(-t^2/2), t = (|cap - P| - margin) / sigma, leaves
  // the reading on P's side of a positive cap. The rounding of the log,
  // divide, sqrt and sum, and of exp here, is ~1e-15 relative; a margin of
  // 1e-9 W plus 1e-9 relative to the powers, and a 1e-9 relative widening
  // of the threshold, cover it many times over. t <= 0 (or NaN) leaves the
  // threshold at 2: no r2 passes, and every draw is valued exactly.
  const Watts margin = 1e-9 * (1.0 + std::abs(cap) + std::abs(true_power));
  const double t = (std::abs(cap - true_power) - margin) / noise_stddev;
  return cap > 0.0 && t > 0.0 ? std::exp(-0.5 * t * t) * (1.0 + 1e-9) : 2.0;
}

double PowerMeter::cap_bound(Watts true_power, Watts cap) {
  if (true_power != bound_power_ || cap != bound_cap_) {
    bound_power_ = true_power;
    bound_cap_ = cap;
    bound_r2_ = settling_r2(true_power, cap, noise_stddev_);
  }
  return bound_r2_;
}

}  // namespace corun::sim
