// Co-run degradation space characterization (Sec. V-B).
//
// The builder co-runs the Figure-4 micro-benchmark against itself across an
// 11x11 grid of standalone-bandwidth settings (0..11 GB/s per device) and
// records, for each cell, how much the CPU-side and GPU-side instances
// degrade. To measure the *pure* co-run rate (not diluted by the partner
// finishing first), the partner instance is made several times longer than
// the subject, so the subject is contended for its entire run — the
// standard looping-co-runner methodology.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "corun/common/expected.hpp"
#include "corun/common/units.hpp"
#include "corun/sim/backend.hpp"
#include "corun/sim/engine.hpp"
#include "corun/sim/machine.hpp"

namespace corun::model {

/// The characterized degradation surfaces. Axis values are the standalone
/// achieved bandwidths of the micro-benchmark settings (GB/s).
struct DegradationGrid {
  std::vector<GBps> cpu_axis;  ///< CPU-side micro settings
  std::vector<GBps> gpu_axis;  ///< GPU-side micro settings
  /// cpu_deg[i][j] = fractional slowdown of the CPU-side micro at
  /// cpu_axis[i] when co-running with the GPU-side micro at gpu_axis[j].
  std::vector<std::vector<double>> cpu_deg;
  /// gpu_deg[i][j], same indexing (i = CPU axis, j = GPU axis).
  std::vector<std::vector<double>> gpu_deg;

  [[nodiscard]] bool valid() const noexcept;
  [[nodiscard]] double max_cpu_degradation() const;
  [[nodiscard]] double max_gpu_degradation() const;

  /// CSV round trip (one row per cell) for caching characterizations.
  /// Doubles are written %.17g, so a reloaded grid is bit-identical.
  void write_csv(std::ostream& out) const;
  [[nodiscard]] static Expected<DegradationGrid> read_csv(const std::string& text);
};

struct CharacterizationOptions {
  std::uint64_t seed = 42;
  Seconds subject_duration = 25.0;  ///< length of the measured instance
  double partner_scale = 4.0;       ///< partner runs this much longer
  /// Machine backend the characterization cells run on.
  sim::BackendSpec backend = sim::default_backend_spec();
};

/// Runs the characterization experiment on the simulator.
class DegradationSpaceBuilder {
 public:
  DegradationSpaceBuilder(sim::MachineConfig config,
                          CharacterizationOptions options = {});

  /// Full 11x11 (or custom-axis) characterization at max frequencies.
  [[nodiscard]] DegradationGrid characterize() const;
  [[nodiscard]] DegradationGrid characterize(std::vector<GBps> cpu_axis,
                                             std::vector<GBps> gpu_axis) const;

  /// Measures one cell: degradation of the subject on `subject_device`
  /// running at `subject_bw` against a long-running partner at `partner_bw`.
  /// characterize() fills every cell with exactly this value.
  [[nodiscard]] double measure_cell(sim::DeviceKind subject_device,
                                    GBps subject_bw, GBps partner_bw) const;

 private:
  /// The subject's standalone run time at max frequency: the reference of
  /// every cell with this subject, whatever the partner.
  [[nodiscard]] Seconds solo_time(sim::DeviceKind subject_device,
                                  GBps subject_bw) const;
  /// A cell's degradation against the subject's solo time.
  [[nodiscard]] double corun_degradation(sim::DeviceKind subject_device,
                                         GBps subject_bw, GBps partner_bw,
                                         Seconds solo) const;

  sim::MachineConfig config_;
  CharacterizationOptions options_;
};

}  // namespace corun::model
