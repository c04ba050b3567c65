// RAPL-like package power sensor: true model power plus zero-mean Gaussian
// measurement noise. The governor reacts to *measured* power, which is what
// lets transient overshoots above the cap appear in traces (Fig. 9) before
// the control loop claws power back.
//
// The noise stream is the polar draws of Rng(seed), popped from a
// PolarStream block (common/rng.hpp) — one draw per sample, so an engine
// core that samples where the tick oracle does stays in lockstep with it.
// The stream is seeded by its first refill, so a meter that is never drawn
// costs nothing. The reading itself — the log, divide and sqrt that turn
// the draw into watts — is computed only where it is observed: read() and
// reading() compute it, exceeds() and threshold_reading() answer cap tests
// from a bound when they can, and a dropout computes the reading it holds
// when it starts.
#pragma once

#include <cstdint>
#include <limits>

#include "corun/common/rng.hpp"
#include "corun/common/units.hpp"

namespace corun::sim {

class PowerMeter {
 public:
  /// Draws the noise of Rng(seed); `noise_stddev` in watts, 0 disables it.
  PowerMeter(std::uint64_t seed, Watts noise_stddev);

  /// One sensor reading of the given true power: draw() then reading().
  [[nodiscard]] Watts read(Watts true_power) {
    draw(true_power);
    return reading();
  }

  /// Samples `true_power`: advances the noise stream by one draw and keeps
  /// the draw (unless the sensor is dropped out) without valuing it.
  void draw(Watts true_power) {
    const Rng::PolarDraw d =
        noise_stddev_ > 0.0 ? stream_.next() : Rng::PolarDraw{};
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
  [[nodiscard]] bool exceeds(Watts true_power, Watts cap) {
    draw(true_power);
    if (dropout_) return held_ > cap;
    if (noise_stddev_ > 0.0 && noise_.r2 > bound_hi(true_power, cap)) {
      return true_power > cap;
    }
    return sample() > cap;
  }

  /// draw(), then a stand-in for reading() that compares with `lo` and with
  /// `hi` (lo < hi) exactly as reading() does: `true_power` itself when the
  /// draw's radius settles both comparisons (see settling_r2()), else
  /// reading(). A controller acting on those two comparisons alone acts the
  /// same on either value, without the log, divide and sqrt.
  [[nodiscard]] Watts threshold_reading(Watts true_power, Watts lo, Watts hi) {
    draw(true_power);
    if (dropout_) return held_;
    if (noise_stddev_ > 0.0 && noise_.r2 > bound_hi(true_power, hi) &&
        noise_.r2 > bound_lo(true_power, lo)) {
      return true_power;
    }
    return sample();
  }

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
  /// settling_r2() at this meter's noise for `true_power` against the upper
  /// and the lower threshold, cached per (true_power, threshold), so one
  /// event horizon computes each once. bound_lo() is only asked after
  /// bound_hi() for the same power, whose refresh() drops a stale lower
  /// bound.
  double bound_hi(Watts true_power, Watts hi) {
    if (true_power != bound_power_ || hi != bound_hi_) refresh(true_power, hi);
    return hi_r2_;
  }
  double bound_lo(Watts true_power, Watts lo) {
    if (lo != bound_lo_) {
      bound_lo_ = lo;
      lo_r2_ = settling_r2(true_power, lo, noise_stddev_);
    }
    return lo_r2_;
  }
  /// Recomputes the upper bound and drops the lower one.
  void refresh(Watts true_power, Watts hi);
  /// The noisy sample of the last healthy draw, clamped at 0 W.
  [[nodiscard]] Watts sample() const;

  PolarStream stream_;
  Watts noise_stddev_;
  bool dropout_ = false;
  Watts held_ = 0.0;     ///< last healthy reading, served while dropped out
  Watts power_ = 0.0;    ///< true power of the last healthy draw
  Rng::PolarDraw noise_; ///< the last healthy draw (0 W of noise before any)
  Watts bound_power_ = std::numeric_limits<double>::quiet_NaN();
  Watts bound_hi_ = std::numeric_limits<double>::quiet_NaN();
  Watts bound_lo_ = std::numeric_limits<double>::quiet_NaN();
  double hi_r2_ = 2.0;
  double lo_r2_ = 2.0;
};

}  // namespace corun::sim
