// Axis-lookup cost of the staged interpolator: a degradation lookup near
// the back of a 2^16-knot axis against one near its front. locate() once
// scanned the axis linearly from the front, which made back lookups
// thousands of times dearer; the binary search makes them differ by a few
// comparisons. The bench times both positions (best of several rounds,
// after a warm-up), CHECKs every lookup's value, and CHECKs the cost
// ratio: the linear scan failed it by orders of magnitude.
//
//   ./bench_axis_lookup
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "corun/common/check.hpp"
#include "corun/core/model/interpolator.hpp"

namespace {

using namespace corun;

constexpr std::size_t kKnots = std::size_t{1} << 16;
constexpr int kLookups = 200000;
constexpr int kRounds = 7;
/// Back lookups may cost at most this many front lookups.
constexpr double kMaxRatio = 4.0;

/// Best per-lookup time, in ns, of kLookups lookups at `bw` (the surface
/// is the knot index, so every lookup must return `bw` itself).
double best_lookup_ns(const model::StagedInterpolator& interp, double bw) {
  double best = std::numeric_limits<double>::infinity();
  for (int round = 0; round < kRounds; ++round) {
    double sum = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kLookups; ++i) {
      sum += interp.cpu_degradation(bw, 0.5);
    }
    const auto t1 = std::chrono::steady_clock::now();
    CORUN_CHECK_MSG(sum == bw * kLookups, "lookup returned a wrong value");
    best = std::min(best, std::chrono::duration<double, std::nano>(t1 - t0)
                                  .count() /
                              kLookups);
  }
  return best;
}

}  // namespace

int main() {
  bench::banner("Axis lookup",
                "Staged-interpolator lookups at the front and the back of a "
                "2^16-knot axis.");
  model::DegradationGrid g;
  g.cpu_axis.resize(kKnots);
  g.cpu_deg.resize(kKnots);
  for (std::size_t i = 0; i < kKnots; ++i) {
    g.cpu_axis[i] = static_cast<double>(i);
    g.cpu_deg[i] = {static_cast<double>(i), static_cast<double>(i)};
  }
  g.gpu_axis = {0.0, 1.0};
  g.gpu_deg.assign(kKnots, std::vector<double>(2, 0.0));
  const model::StagedInterpolator interp(std::move(g));

  const double front_bw = 1.25;
  const double back_bw = static_cast<double>(kKnots) - 1.75;
  (void)best_lookup_ns(interp, front_bw);  // warm-up
  const double front = best_lookup_ns(interp, front_bw);
  const double back = best_lookup_ns(interp, back_bw);
  const double ratio = back / front;
  std::printf("front lookup: %.1f ns\nback lookup:  %.1f ns\n"
              "back/front:   %.2fx (CHECKed <= %.0fx)\n",
              front, back, ratio, kMaxRatio);
  CORUN_CHECK_MSG(ratio <= kMaxRatio,
                  "back-of-axis lookups cost " + std::to_string(ratio) +
                      "x front ones: is locate() scanning linearly?");
  return 0;
}
