#include "corun/common/rng.hpp"

#include "corun/common/check.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

namespace corun {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 16 && !any_diff; ++i) {
    any_diff = a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.5, 3.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 5);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit with overwhelming probability
}

TEST(Rng, GaussianRoughMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gaussian(2.0);
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.1);
  EXPECT_NEAR(sq / n, 4.0, 0.3);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkIndependence) {
  Rng parent(42);
  Rng a = parent.fork("alpha");
  Rng b = parent.fork("beta");
  Rng a2 = Rng(42).fork("alpha");
  // Same parent + same tag reproduces; different tags diverge.
  EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), a2.uniform(0.0, 1.0));
  Rng a3 = Rng(42).fork("alpha");
  EXPECT_NE(a3.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, ForkDiffersFromParentSeedChange) {
  Rng s1 = Rng(1).fork("t");
  Rng s2 = Rng(2).fork("t");
  EXPECT_NE(s1.uniform(0.0, 1.0), s2.uniform(0.0, 1.0));
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, InvalidArgsRejected) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniform(2.0, 1.0), ContractViolation);
  EXPECT_THROW((void)rng.uniform_int(5, 4), ContractViolation);
  EXPECT_THROW((void)rng.gaussian(-1.0), ContractViolation);
  EXPECT_THROW((void)rng.chance(1.5), ContractViolation);
}

// --- the in-repo MT19937-64 and polar draw against the standard library ---

constexpr std::uint64_t kPinSeeds[] = {0, 1, 42, 5489, 0x9e3779b97f4a7c15ULL,
                                       ~std::uint64_t{0}};

TEST(Mt19937_64, MatchesStdForAMillionOutputsAtSeveralSeeds) {
  for (const std::uint64_t seed : kPinSeeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 theirs(seed);
    for (int i = 0; i < 1000000; ++i) {
      const std::uint64_t a = ours();
      const std::uint64_t b = theirs();
      ASSERT_EQ(a, b) << "seed " << seed << ", output " << i;
    }
  }
}

TEST(Mt19937_64, StandardCheckValue) {
  // [rand.predef]: the 10000th consecutive invocation of a default-
  // constructed mt19937_64 (seed 5489) produces 9981545732273789042.
  Mt19937_64 engine(5489);
  std::uint64_t x = 0;
  for (int i = 0; i < 10000; ++i) x = engine();
  EXPECT_EQ(x, 9981545732273789042ULL);
}

TEST(Rng, DistributionsMatchTheStdEngineDrawForDraw) {
  // Rng's uniform / uniform_int / chance / shuffle, interleaved on one
  // stream, against the same standard distributions on std::mt19937_64.
  for (const std::uint64_t seed : kPinSeeds) {
    Rng ours(seed);
    std::mt19937_64 theirs(seed);
    std::vector<int> mine(37);
    for (int i = 0; i < 37; ++i) mine[static_cast<std::size_t>(i)] = i;
    std::vector<int> ref = mine;
    for (int i = 0; i < 100000; ++i) {
      switch (i % 4) {
        case 0: {
          const double lo = -3.5 + i % 7;
          const double a = ours.uniform(lo, lo + 9.25);
          const double b =
              std::uniform_real_distribution<double>(lo, lo + 9.25)(theirs);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(a),
                    std::bit_cast<std::uint64_t>(b));
          break;
        }
        case 1: {
          const std::int64_t hi = 1 + i % 1000;
          std::uniform_int_distribution<std::int64_t> dist(-5, hi);
          ASSERT_EQ(ours.uniform_int(-5, hi), dist(theirs));
          break;
        }
        case 2: {
          const double p = (i % 11) / 10.0;
          ASSERT_EQ(ours.chance(p), std::bernoulli_distribution(p)(theirs));
          break;
        }
        default: {
          ours.shuffle(mine);
          for (std::size_t k = ref.size(); k > 1; --k) {
            const auto j = static_cast<std::size_t>(
                std::uniform_int_distribution<std::int64_t>(
                    0, static_cast<std::int64_t>(k) - 1)(theirs));
            std::swap(ref[k - 1], ref[j]);
          }
          ASSERT_EQ(mine, ref);
          break;
        }
      }
    }
  }
}

#ifdef __GLIBCXX__
TEST(Rng, PolarDrawIsLibstdcxxNormalDistributionBitForBit) {
  // The meter's draw before it moved in-repo: a std::normal_distribution
  // built fresh per call on std::mt19937_64.
  for (const double sigma : {0.25, 2.0}) {
    for (const std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{5489}}) {
      Rng ours(seed);
      std::mt19937_64 theirs(seed);
      for (int i = 0; i < 1000000; ++i) {
        const double a = ours.gaussian(sigma);
        const double b = std::normal_distribution<double>(0.0, sigma)(theirs);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a),
                  std::bit_cast<std::uint64_t>(b))
            << "sigma " << sigma << ", seed " << seed << ", draw " << i;
      }
    }
  }
}
#endif

TEST(Rng, PolarValueSplitsTheGaussian) {
  Rng a(17);
  Rng b(17);
  for (int i = 0; i < 10000; ++i) {
    const Rng::PolarDraw d = a.polar_draw();
    ASSERT_GT(d.r2, 0.0);
    ASSERT_LE(d.r2, 1.0);
    ASSERT_LE(d.y * d.y, d.r2);
    const double v = Rng::polar_value(d, 0.5);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(v),
              std::bit_cast<std::uint64_t>(b.gaussian(0.5)));
    ASSERT_LE(std::abs(v),
              0.5 * std::sqrt(-2.0 * std::log(d.r2)) * (1 + 1e-12));
  }
}

TEST(PolarStream, MatchesPolarDrawDrawForDrawAcrossRefills) {
  // A million draws per seed cross some 8 000 block refills (at most 156
  // accepted draws per 312-output block); the first draw is the stream's
  // seeding refill.
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{42}, std::uint64_t{5489},
        Rng::fork_seed(7, "power-meter")}) {
    Rng rng(seed);
    PolarStream stream(seed);
    for (int i = 0; i < 1000000; ++i) {
      const Rng::PolarDraw a = rng.polar_draw();
      const Rng::PolarDraw b = stream.next();
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.y),
                std::bit_cast<std::uint64_t>(b.y))
          << "seed " << seed << ", draw " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.r2),
                std::bit_cast<std::uint64_t>(b.r2))
          << "seed " << seed << ", draw " << i;
    }
  }
}

TEST(PolarStream, CopyResumesWhereTheOriginalStands) {
  // Engines (and their meters) are copyable; a copy taken mid-block, or
  // before the first refill, continues the same stream.
  PolarStream fresh(9);
  PolarStream fresh_copy = fresh;
  PolarStream original(9);
  for (int i = 0; i < 200; ++i) (void)original.next();
  PolarStream copy = original;
  Rng rng(9);
  for (int i = 0; i < 200; ++i) (void)rng.polar_draw();
  for (int i = 0; i < 1000; ++i) {
    const Rng::PolarDraw expected = rng.polar_draw();
    const Rng::PolarDraw a = original.next();
    const Rng::PolarDraw b = copy.next();
    ASSERT_EQ(a.y, expected.y) << "draw " << i;
    ASSERT_EQ(b.y, expected.y) << "draw " << i;
    ASSERT_EQ(b.r2, expected.r2) << "draw " << i;
  }
  Rng from_start(9);
  for (int i = 0; i < 1000; ++i) {
    const Rng::PolarDraw expected = from_start.polar_draw();
    ASSERT_EQ(fresh_copy.next().r2, expected.r2) << "draw " << i;
    ASSERT_EQ(fresh.next().y, expected.y) << "draw " << i;
  }
}

TEST(Rng, ForkSeedIsTheForkedStreamsSeed) {
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42}}) {
    EXPECT_EQ(Rng::fork_seed(seed, "power-meter"),
              Rng(seed).fork("power-meter").seed());
  }
}

TEST(Hash64, StableAndDistinct) {
  EXPECT_EQ(hash64("abc"), hash64("abc"));
  EXPECT_NE(hash64("abc"), hash64("abd"));
  EXPECT_NE(hash64(""), hash64("a"));
}

}  // namespace
}  // namespace corun
