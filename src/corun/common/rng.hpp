// Deterministic random-number generation.
//
// Every stochastic component of the library (random baseline scheduler,
// power-measurement noise, phase-trace jitter) draws from an explicitly
// seeded Rng so whole experiments replay bit-for-bit. Rng also provides
// `fork(tag)` to derive independent child streams without the children
// sharing state — the standard trick for deterministic parallel experiments.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace corun {

/// MT19937-64 with the output sequence the C++ standard fixes for
/// std::mt19937_64, so every seed reproduces exactly; the refill masks the
/// twist constant in instead of branching on each word's low bit (libstdc++
/// branches, ~2.7x slower per output on a 4-vCPU x86-64 VM). The state is
/// seeded by the first refill, so an engine that never draws (a stream only
/// forked from, or a meter nothing observes) never pays the 312-word
/// seeding. Satisfies UniformRandomBitGenerator, so the standard
/// distributions run on it unchanged.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) noexcept : seed_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (index_ >= kStateSize) refill();
    result_type y = state_[index_++];
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
    y ^= (y << 37) & 0xFFF7EEE000000000ULL;
    y ^= y >> 43;
    return y;
  }

 private:
  static constexpr std::size_t kStateSize = 312;
  static constexpr std::size_t kUnseeded = kStateSize + 1;

  /// Seeds the state on first use, then twists it (the standard's refill).
  void refill() noexcept;

  result_type state_[kStateSize] = {};
  std::size_t index_ = kUnseeded;
  result_type seed_;
};

/// Deterministic pseudo-random stream (MT19937-64 based).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Zero-mean Gaussian with the given standard deviation:
  /// polar_value(polar_draw(), stddev).
  double gaussian(double stddev);

  /// One accepted point of Marsaglia's polar method: its y coordinate and
  /// squared radius r2 in (0, 1]. The Gaussian it yields is polar_value().
  struct PolarDraw {
    double y = 0.0;
    double r2 = 1.0;
  };

  /// Advances the stream by one polar draw: pairs of canonical uniforms,
  /// rejected while outside the unit disc or at its centre. This is
  /// libstdc++'s std::normal_distribution on a fresh object, draw for draw.
  PolarDraw polar_draw() noexcept {
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return {y, r2};
  }

  /// The Gaussian of a polar draw, with libstdc++'s arithmetic in its order
  /// (the x half of the pair is discarded, as a fresh distribution does).
  /// |value| <= stddev * sqrt(-2 ln r2), since y^2 <= r2.
  [[nodiscard]] static double polar_value(PolarDraw d, double stddev) {
    return d.y * std::sqrt(-2 * std::log(d.r2) / d.r2) * stddev + 0.0;
  }

  /// Bernoulli draw with probability p of true.
  bool chance(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child stream. Children with distinct tags (or
  /// distinct parent seeds) produce uncorrelated sequences.
  [[nodiscard]] Rng fork(std::string_view tag) const;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  /// std::generate_canonical<double, 53> of libstdc++ on a 64-bit engine:
  /// double(u) * 2^-64, clamped below 1. double(u) is the sum of its two
  /// exactly converted 32-bit halves, which rounds once, to the same
  /// nearest double as the branchy unsigned conversion.
  double canonical() noexcept {
    const std::uint64_t u = engine_();
    const double d =
        static_cast<double>(static_cast<std::int64_t>(u >> 32)) * 0x1p32 +
        static_cast<double>(static_cast<std::int64_t>(u & 0xFFFFFFFFULL));
    return std::min(d * 0x1p-64, 0x1.fffffffffffffp-1);
  }

  Mt19937_64 engine_;
  std::uint64_t seed_;
};

/// Stable 64-bit FNV-1a hash used for seed derivation.
std::uint64_t hash64(std::string_view s) noexcept;

}  // namespace corun
