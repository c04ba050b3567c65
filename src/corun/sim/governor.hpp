// Reactive DVFS power governor.
//
// Implements the two frequency-adjustment policies the paper pairs with the
// Random and Default baselines (Sec. VI-A):
//   - GPU-biased: on overshoot lower the CPU first (down to its floor),
//     then the GPU; when headroom appears raise the GPU first.
//   - CPU-biased: the mirror image.
// Scheduler-chosen frequencies act as *ceilings*: the governor never raises a
// domain above the level the schedule requested, so model-driven schedulers
// (HCS) keep their chosen operating points while the governor remains a
// safety net against mispredicted power.
#pragma once

#include <optional>
#include <string>

#include "corun/common/expected.hpp"
#include "corun/common/units.hpp"
#include "corun/sim/frequency.hpp"

namespace corun::sim {

enum class GovernorPolicy {
  kNone,      ///< pin levels to the requested ceilings, no cap enforcement
  kGpuBiased, ///< prefer CPU frequency sacrifices
  kCpuBiased, ///< prefer GPU frequency sacrifices
};

[[nodiscard]] const char* policy_name(GovernorPolicy p) noexcept;

/// Reads a planning policy as the tools and the wire name it: "gpu"
/// (GPU-biased) or "cpu" (CPU-biased); anything else is an error.
[[nodiscard]] Expected<GovernorPolicy> parse_policy(const std::string& text);

/// Current and requested operating point of both domains.
struct DvfsState {
  FreqLevel cpu_level = 0;
  FreqLevel gpu_level = 0;
  FreqLevel cpu_ceiling = 0;
  FreqLevel gpu_ceiling = 0;
};

class PowerGovernor {
 public:
  /// A step raises a level only when the reading is below cap - this: the
  /// dead band [cap - margin, cap] keeps the loop from chattering.
  static constexpr Watts kRaiseMargin = 1.2;

  PowerGovernor(GovernorPolicy policy, std::optional<Watts> cap);

  /// One control step: inspect the measured power and nudge levels by at
  /// most one step per domain. Returns the updated levels.
  [[nodiscard]] DvfsState step(Watts measured_power, DvfsState state) const;

  [[nodiscard]] GovernorPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] std::optional<Watts> cap() const noexcept {
    return cap_ > 0.0 ? std::optional<Watts>(cap_) : std::nullopt;
  }

 private:
  GovernorPolicy policy_;
  Watts cap_;  ///< positive; 0 = uncapped
};

}  // namespace corun::sim
