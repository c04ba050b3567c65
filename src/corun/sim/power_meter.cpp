#include "corun/sim/power_meter.hpp"

#include <algorithm>
#include <cmath>

#include "corun/common/check.hpp"

namespace corun::sim {

PowerMeter::PowerMeter(std::uint64_t seed, Watts noise_stddev)
    : stream_(seed), noise_stddev_(noise_stddev) {
  CORUN_CHECK(noise_stddev >= 0.0);
}

Watts PowerMeter::sample() const {
  const Watts noisy = noise_stddev_ > 0.0
                          ? power_ + Rng::polar_value(noise_, noise_stddev_)
                          : power_;
  return std::max(0.0, noisy);
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

void PowerMeter::refresh(Watts true_power, Watts hi) {
  bound_power_ = true_power;
  bound_hi_ = hi;
  hi_r2_ = settling_r2(true_power, hi, noise_stddev_);
  bound_lo_ = std::numeric_limits<double>::quiet_NaN();
}

}  // namespace corun::sim
