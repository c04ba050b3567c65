#include "corun/common/rng.hpp"

#include <random>

#include "corun/common/check.hpp"

namespace corun {

void Mt19937_64::refill() noexcept {
  if (index_ == kUnseeded) {
    state_[0] = seed_;
    for (std::size_t i = 1; i < kStateSize; ++i) {
      const result_type prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
  }
  constexpr std::size_t kShift = 156;  // the standard's m
  constexpr result_type kUpper = ~result_type{0} << 31;
  constexpr result_type kA = 0xB5026F5AA96619E9ULL;
  const auto twist = [](result_type cur, result_type next, result_type far) {
    const result_type y = (cur & kUpper) | (next & ~kUpper);
    return far ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & kA);
  };
  std::size_t k = 0;
  for (; k < kStateSize - kShift; ++k) {
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (; k < kStateSize - 1; ++k) {
    state_[k] =
        twist(state_[k], state_[k + 1], state_[k + kShift - kStateSize]);
  }
  state_[kStateSize - 1] =
      twist(state_[kStateSize - 1], state_[0], state_[kShift - 1]);
  index_ = 0;
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

Rng Rng::fork(std::string_view tag) const {
  // Mix the parent seed with the tag hash through a splitmix-style step so
  // fork("a") of seed 1 differs from fork("a") of seed 2 and from fork("b").
  std::uint64_t z = seed_ ^ (hash64(tag) + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return Rng(z);
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
