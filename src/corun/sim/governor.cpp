#include "corun/sim/governor.hpp"

#include <algorithm>

#include "corun/common/check.hpp"

namespace corun::sim {

const char* policy_name(GovernorPolicy p) noexcept {
  switch (p) {
    case GovernorPolicy::kNone: return "none";
    case GovernorPolicy::kGpuBiased: return "gpu-biased";
    case GovernorPolicy::kCpuBiased: return "cpu-biased";
  }
  return "?";
}

Expected<GovernorPolicy> parse_policy(const std::string& text) {
  if (text == "gpu") return GovernorPolicy::kGpuBiased;
  if (text == "cpu") return GovernorPolicy::kCpuBiased;
  return fail("unknown policy '" + text + "' (gpu|cpu)",
              ErrorCategory::kInvalidArgument);
}

PowerGovernor::PowerGovernor(GovernorPolicy policy, std::optional<Watts> cap)
    : policy_(policy), cap_(cap.value_or(0.0)) {
  if (cap) CORUN_CHECK_MSG(*cap > 0.0, "power cap must be positive");
}

DvfsState PowerGovernor::step(Watts measured_power, DvfsState s) const {
  s.cpu_level = std::min(s.cpu_level, s.cpu_ceiling);
  s.gpu_level = std::min(s.gpu_level, s.gpu_ceiling);
  if (policy_ == GovernorPolicy::kNone || !(cap_ > 0.0)) {
    s.cpu_level = s.cpu_ceiling;
    s.gpu_level = s.gpu_ceiling;
    return s;
  }

  const bool gpu_first_down = policy_ == GovernorPolicy::kGpuBiased;
  if (measured_power > cap_) {
    // Overshoot: lower the sacrificial domain first, one step at a time.
    if (gpu_first_down) {
      if (s.cpu_level > 0) {
        --s.cpu_level;
      } else if (s.gpu_level > 0) {
        --s.gpu_level;
      }
    } else {
      if (s.gpu_level > 0) {
        --s.gpu_level;
      } else if (s.cpu_level > 0) {
        --s.cpu_level;
      }
    }
  } else if (measured_power < cap_ - kRaiseMargin) {
    // Headroom: raise the favoured domain first, bounded by its ceiling.
    if (gpu_first_down) {
      if (s.gpu_level < s.gpu_ceiling) {
        ++s.gpu_level;
      } else if (s.cpu_level < s.cpu_ceiling) {
        ++s.cpu_level;
      }
    } else {
      if (s.cpu_level < s.cpu_ceiling) {
        ++s.cpu_level;
      } else if (s.gpu_level < s.gpu_ceiling) {
        ++s.gpu_level;
      }
    }
  }
  return s;
}

}  // namespace corun::sim
