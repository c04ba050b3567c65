// Deterministic random-number generation.
//
// Every stochastic component of the library (random baseline scheduler,
// power-measurement noise, phase-trace jitter) draws from an explicitly
// seeded Rng so whole experiments replay bit-for-bit. Rng also provides
// `fork(tag)` to derive independent child streams without the children
// sharing state — the standard trick for deterministic parallel experiments.
//
// The power meter, which draws once per simulated tick, takes its noise
// from a PolarStream instead: the same polar draws a fresh Rng would make,
// produced a 312-output block at a time in loops the compiler vectorizes.
#pragma once

#include <algorithm>
#include <bit>
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
/// forked from) never pays the 312-word seeding. Satisfies
/// UniformRandomBitGenerator, so the standard distributions run on it
/// unchanged. Its seeding, twist and tempering are public so PolarStream
/// can run them a block at a time.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) noexcept : seed_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (index_ >= kStateSize) refill();
    return temper(state_[index_++]);
  }

  static constexpr std::size_t kStateSize = 312;

  /// The standard's seeding: state[0] = seed, the rest derived from it.
  static void seed_state(result_type* state, result_type seed) noexcept;
  /// Regenerates all kStateSize words in place (the standard's refill).
  static void twist(result_type* state) noexcept;
  /// The output transform of one state word.
  static result_type temper(result_type y) noexcept {
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
    y ^= (y << 37) & 0xFFF7EEE000000000ULL;
    return y ^ (y >> 43);
  }

 private:
  static constexpr std::size_t kUnseeded = kStateSize + 1;

  /// Seeds the state on first use, then twists it.
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
  [[nodiscard]] Rng fork(std::string_view tag) const {
    return Rng(fork_seed(seed_, tag));
  }
  /// The seed of Rng(seed).fork(tag), without building either stream.
  [[nodiscard]] static std::uint64_t fork_seed(std::uint64_t seed,
                                               std::string_view tag) noexcept;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  friend class PolarStream;

  /// std::generate_canonical<double, 53> of libstdc++ on a 64-bit engine:
  /// double(u) * 2^-64, clamped below 1. That product is the sum of u's two
  /// 32-bit halves scaled by 2^-32 and 2^-64, each exact: a half h placed
  /// in the mantissa of 2^20 (or 2^-12) reads as 2^20 + h * 2^-32 (or
  /// 2^-12 + h * 2^-64), and subtracting the power of two leaves the scaled
  /// half. The sum rounds once, to the same nearest double as the branchy
  /// unsigned conversion, and scaling by a power of two commutes with that
  /// rounding. Only shifts, ors and double arithmetic, so a loop over a
  /// block of outputs vectorizes.
  static double canonical(std::uint64_t u) noexcept {
    const double hi =
        std::bit_cast<double>((u >> 32) | 0x4130000000000000ULL) - 0x1p20;
    const double lo =
        std::bit_cast<double>((u & 0xFFFFFFFFULL) | 0x3F30000000000000ULL) -
        0x1p-12;
    const double d = hi + lo;
    constexpr double kBelowOne = 0x1.fffffffffffffp-1;
    return d < kBelowOne ? d : kBelowOne;
  }
  double canonical() noexcept { return canonical(engine_()); }

  Mt19937_64 engine_;
  std::uint64_t seed_;
};

/// The polar draws of a fresh Rng(seed), draw for draw — what calling
/// Rng(seed).polar_draw() over and over returns — made a block at a time.
/// Each refill twists the whole 312-word MT19937-64 state, then tempers it
/// and converts it to canonical doubles in loops the compiler vectorizes,
/// forms the block's 156 polar attempts and compacts the accepted (y, r2)
/// pairs without branches. Every attempt takes exactly two outputs and a
/// block holds an even number, so no attempt straddles a refill. The state
/// is seeded by the first refill and neither array is ever zero-filled: a
/// stream that never draws costs its storage and nothing else.
class PolarStream {
 public:
  explicit PolarStream(std::uint64_t seed) noexcept { state_[0] = seed; }
  /// Copies what has been written: the seed or the seeded state, and the
  /// draws not yet taken. The rest of both arrays is never read, so it
  /// stays unwritten in the copy too.
  PolarStream(const PolarStream& other) noexcept
      : next_(other.next_), count_(other.count_) {
    const bool seeded = count_ != kUnseeded;
    std::copy_n(other.state_, seeded ? Mt19937_64::kStateSize : 1, state_);
    if (seeded) {
      std::copy(other.y_ + next_, other.y_ + count_, y_ + next_);
      std::copy(other.r2_ + next_, other.r2_ + count_, r2_ + next_);
    }
  }
  PolarStream& operator=(const PolarStream&) = delete;

  /// The next accepted polar draw.
  Rng::PolarDraw next() noexcept {
    while (next_ == count_) refill();
    const std::size_t i = next_++;
    return {y_[i], r2_[i]};
  }

 private:
  static constexpr std::size_t kAttempts = Mt19937_64::kStateSize / 2;
  static constexpr std::uint16_t kUnseeded = kAttempts + 1;

  /// Seeds the state on first use (state_[0] holds the seed until then),
  /// twists it and refills the draws.
  void refill() noexcept;

  std::uint64_t state_[Mt19937_64::kStateSize];
  double y_[kAttempts];   ///< accepted draws [next_, count_)
  double r2_[kAttempts];
  std::uint16_t next_ = kUnseeded;
  std::uint16_t count_ = kUnseeded;
};

/// Stable 64-bit FNV-1a hash used for seed derivation.
std::uint64_t hash64(std::string_view s) noexcept;

}  // namespace corun
