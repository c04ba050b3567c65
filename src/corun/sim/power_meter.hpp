// RAPL-like package power sensor: true model power plus zero-mean Gaussian
// measurement noise. The governor reacts to *measured* power, which is what
// lets transient overshoots above the cap appear in traces (Fig. 9) before
// the control loop claws power back.
//
// Every sample advances the noise stream by one polar draw (Rng::PolarDraw),
// so an engine core that samples where the tick oracle does stays in
// lockstep with it. The reading itself — the log, divide and sqrt that turn
// the draw into watts — is computed only where it is observed: read() and
// reading() compute it, exceeds() answers a cap test from a bound when it
// can, and a dropout computes the reading it holds when it starts.
#pragma once

#include <limits>

#include "corun/common/rng.hpp"
#include "corun/common/units.hpp"

namespace corun::sim {

class PowerMeter {
 public:
  /// `noise_stddev` in watts; 0 disables noise.
  PowerMeter(Rng rng, Watts noise_stddev);

  /// One sensor reading of the given true power: draw() then reading().
  [[nodiscard]] Watts read(Watts true_power) {
    draw(true_power);
    return reading();
  }

  /// Samples `true_power`: advances the noise stream by one draw and keeps
  /// the draw (unless the sensor is dropped out) without valuing it.
  void draw(Watts true_power) {
    const Rng::PolarDraw d =
        noise_stddev_ > 0.0 ? rng_.polar_draw() : Rng::PolarDraw{};
    if (dropout_) return;
    power_ = true_power;
    noise_ = d;
  }

  /// The reading of the last draw (never negative). During a dropout the
  /// sensor register freezes: the stream still advances, but the caller sees
  /// the last pre-fault reading — 0 W if the sensor never produced one.
  [[nodiscard]] Watts reading() const { return dropout_ ? held_ : sample(); }

  /// draw(), then whether reading() > cap — decided without computing the
  /// reading whenever the draw's radius proves which side of the cap it
  /// falls on (see settling_r2()).
  [[nodiscard]] bool exceeds(Watts true_power, Watts cap);

  /// The r2 above which no polar draw can carry a noisy reading of
  /// `true_power` across `cap`: such a draw's reading exceeds the cap
  /// exactly when `true_power` does. Above 1 (no draw qualifies) when the
  /// bound cannot decide.
  [[nodiscard]] static double settling_r2(Watts true_power, Watts cap,
                                          Watts noise_stddev);

  /// Starts/ends a transient sensor fault (see reading()). The start
  /// computes the reading it holds.
  void set_dropout(bool active) {
    if (active && !dropout_) held_ = sample();
    dropout_ = active;
  }
  [[nodiscard]] bool dropout() const noexcept { return dropout_; }

  [[nodiscard]] Watts noise_stddev() const noexcept { return noise_stddev_; }

 private:
  /// The noisy sample of the last healthy draw, clamped at 0 W.
  [[nodiscard]] Watts sample() const;
  /// settling_r2() at this meter's noise, cached per (true_power, cap), so
  /// one event horizon computes it once.
  double cap_bound(Watts true_power, Watts cap);

  Rng rng_;
  Watts noise_stddev_;
  bool dropout_ = false;
  Watts held_ = 0.0;     ///< last healthy reading, served while dropped out
  Watts power_ = 0.0;    ///< true power of the last healthy draw
  Rng::PolarDraw noise_; ///< the last healthy draw (0 W of noise before any)
  Watts bound_power_ = std::numeric_limits<double>::quiet_NaN();
  Watts bound_cap_ = std::numeric_limits<double>::quiet_NaN();
  double bound_r2_ = 2.0;
};

}  // namespace corun::sim
