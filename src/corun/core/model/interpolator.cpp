#include "corun/core/model/interpolator.hpp"

#include <algorithm>

#include "corun/common/check.hpp"

namespace corun::model {
namespace {

/// Finds the cell [k, k+1] containing v (clamped) and the fractional
/// position within it.
AxisPos locate(const std::vector<double>& axis, double v) {
  CORUN_CHECK(axis.size() >= 1);
  if (axis.size() == 1 || v <= axis.front()) return {0, 0, 0.0};
  if (v >= axis.back()) return {axis.size() - 1, axis.size() - 1, 0.0};
  // Binary search for the first knot > v; the clamps above guarantee
  // axis.front() < v < axis.back(), so hi lands in [1, size - 1]. On an
  // axis with duplicated knots this picks the rightmost duplicate's cell
  // (right-continuous), and the zero-span guard keeps frac finite.
  const std::size_t hi = static_cast<std::size_t>(
      std::upper_bound(axis.begin(), axis.end(), v) - axis.begin());
  const std::size_t lo = hi - 1;
  const double span = axis[hi] - axis[lo];
  return {lo, hi, span > 0.0 ? (v - axis[lo]) / span : 0.0};
}

}  // namespace

StagedInterpolator::StagedInterpolator(DegradationGrid grid)
    : grid_(std::move(grid)) {
  CORUN_CHECK_MSG(grid_.valid(), "degradation grid is malformed");
  CORUN_CHECK(std::is_sorted(grid_.cpu_axis.begin(), grid_.cpu_axis.end()));
  CORUN_CHECK(std::is_sorted(grid_.gpu_axis.begin(), grid_.gpu_axis.end()));
}

AxisPos StagedInterpolator::locate_cpu(GBps cpu_bw) const {
  return locate(grid_.cpu_axis, cpu_bw);
}

AxisPos StagedInterpolator::locate_gpu(GBps gpu_bw) const {
  return locate(grid_.gpu_axis, gpu_bw);
}

double StagedInterpolator::blend(
    const std::vector<std::vector<double>>& surface, AxisPos cpu,
    AxisPos gpu) {
  const double d00 = surface[cpu.lo][gpu.lo];
  const double d01 = surface[cpu.lo][gpu.hi];
  const double d10 = surface[cpu.hi][gpu.lo];
  const double d11 = surface[cpu.hi][gpu.hi];
  const double lo = d00 * (1.0 - gpu.frac) + d01 * gpu.frac;
  const double hi = d10 * (1.0 - gpu.frac) + d11 * gpu.frac;
  return lo * (1.0 - cpu.frac) + hi * cpu.frac;
}

double StagedInterpolator::cpu_degradation(GBps cpu_bw, GBps gpu_bw) const {
  return blend(grid_.cpu_deg, locate_cpu(cpu_bw), locate_gpu(gpu_bw));
}

double StagedInterpolator::gpu_degradation(GBps cpu_bw, GBps gpu_bw) const {
  return blend(grid_.gpu_deg, locate_cpu(cpu_bw), locate_gpu(gpu_bw));
}

}  // namespace corun::model
