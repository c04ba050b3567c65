#include "corun/common/rng.hpp"

#include <bit>
#include <random>

#include "corun/common/check.hpp"

namespace corun {

void Mt19937_64::seed_state(result_type* state, result_type seed) noexcept {
  state[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const result_type prev = state[i - 1];
    state[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist(result_type* state) noexcept {
  constexpr std::size_t kShift = 156;  // the standard's m
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kA = 0xB5026F5AA96619E9ULL;
  const auto mix = [](result_type cur, result_type next, result_type far) {
    const result_type y = (cur & kUpper) | (next & ~kUpper);
    return far ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & kA);
  };
  std::size_t k = 0;
  for (; k < kStateSize - kShift; ++k) {
    state[k] = mix(state[k], state[k + 1], state[k + kShift]);
  }
  for (; k < kStateSize - 1; ++k) {
    state[k] = mix(state[k], state[k + 1], state[k + kShift - kStateSize]);
  }
  state[kStateSize - 1] =
      mix(state[kStateSize - 1], state[0], state[kShift - 1]);
}

void Mt19937_64::refill() noexcept {
  if (index_ == kUnseeded) seed_state(state_, seed_);
  twist(state_);
  index_ = 0;
}

void PolarStream::refill() noexcept {
  if (count_ == kUnseeded) Mt19937_64::seed_state(state_, state_[0]);
  Mt19937_64::twist(state_);
  // Rng::polar_draw's arithmetic, one block at a time: canonical doubles
  // for all 312 outputs, then attempt i takes outputs 2i (x) and 2i + 1
  // (y) and is accepted unless r2 > 1 or r2 == 0.
  double u[Mt19937_64::kStateSize];
  for (std::size_t k = 0; k < Mt19937_64::kStateSize; ++k) {
    u[k] = Rng::canonical(Mt19937_64::temper(state_[k]));
  }
  double ys[kAttempts];
  double r2s[kAttempts];
  for (std::size_t i = 0; i < kAttempts; ++i) {
    const double x = 2.0 * u[2 * i] - 1.0;
    const double y = 2.0 * u[2 * i + 1] - 1.0;
    ys[i] = y;
    r2s[i] = x * x + y * y;
  }
  // Branch-free compaction: every attempt is written to the next free
  // slot, which only an accepted one claims. r2 is a sum of squares, so
  // never negative (nor -0) and never NaN, and its bits order like its
  // values: 0 < r2 <= 1 is 0 < bits <= bits(1.0).
  constexpr std::uint64_t kOneBits = 0x3FF0000000000000ULL;
  std::size_t n = 0;
  for (std::size_t i = 0; i < kAttempts; ++i) {
    y_[n] = ys[i];
    r2_[n] = r2s[i];
    n += static_cast<std::size_t>(std::bit_cast<std::uint64_t>(r2s[i]) - 1 <
                                  kOneBits);
  }
  next_ = 0;
  count_ = static_cast<std::uint16_t>(n);
}

double Rng::uniform(double lo, double hi) {
  CORUN_CHECK(lo <= hi);
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CORUN_CHECK(lo <= hi);
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::gaussian(double stddev) {
  CORUN_CHECK(stddev >= 0.0);
  return polar_value(polar_draw(), stddev);
}

bool Rng::chance(double p) {
  CORUN_CHECK(p >= 0.0 && p <= 1.0);
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

std::uint64_t Rng::fork_seed(std::uint64_t seed,
                             std::string_view tag) noexcept {
  // Mix the parent seed with the tag hash through a splitmix-style step so
  // fork("a") of seed 1 differs from fork("a") of seed 2 and from fork("b").
  std::uint64_t z = seed ^ (hash64(tag) + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace corun
