// Staged interpolation over the degradation space (Sec. V-C).
//
// Stage 1 (offline, once per machine): the micro-benchmark characterizes the
// degradation surfaces — see DegradationSpaceBuilder.
// Stage 2 (per prediction): a real program pair is located inside the space
// by the standalone average bandwidths of its two sides at their current
// frequencies, and each side's degradation is read off by bilinear
// interpolation. This replaces O(N^2 K^2) pairwise profiling with O(N K)
// standalone profiles plus one grid.
#pragma once

#include <cstddef>
#include <vector>

#include "corun/common/units.hpp"
#include "corun/core/model/degradation_space.hpp"

namespace corun::model {

/// Where a bandwidth falls on one grid axis: the knots [lo, hi] of the cell
/// containing it (clamped to the axis) and the fractional position within.
struct AxisPos {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double frac = 0.0;
};

class StagedInterpolator {
 public:
  explicit StagedInterpolator(DegradationGrid grid);

  /// Degradation of the CPU-side program whose standalone bandwidth is
  /// `cpu_bw` when the GPU side offers `gpu_bw`. Inputs are clamped to the
  /// characterized range.
  [[nodiscard]] double cpu_degradation(GBps cpu_bw, GBps gpu_bw) const;

  /// Degradation of the GPU-side program, same coordinates.
  [[nodiscard]] double gpu_degradation(GBps cpu_bw, GBps gpu_bw) const;

  /// Stage 2 in its two steps, for callers that place one bandwidth against
  /// many partners: locate each side on its axis once, then blend either
  /// surface (grid().cpu_deg or grid().gpu_deg) at the located pair. The
  /// two *_degradation queries above are exactly these calls.
  [[nodiscard]] AxisPos locate_cpu(GBps cpu_bw) const;
  [[nodiscard]] AxisPos locate_gpu(GBps gpu_bw) const;
  [[nodiscard]] static double blend(
      const std::vector<std::vector<double>>& surface, AxisPos cpu,
      AxisPos gpu);

  [[nodiscard]] const DegradationGrid& grid() const noexcept { return grid_; }

 private:
  DegradationGrid grid_;
};

}  // namespace corun::model
