// Deterministic dynamic-event streams for long-running executions.
//
// The paper's scheduler plans once and assumes the batch, the power cap,
// and the profiles hold for the whole run. A production machine breaks all
// three assumptions: jobs arrive and leave mid-run, thermal pressure moves
// the cap, profile-driven predictions drift (~15% error in the paper's own
// evaluation), and sensors glitch. A FaultPlan is a seeded, time-sorted
// stream of exactly those perturbations; the dynamic runtime layer
// (core/runtime/dynamic) injects them into a running sim::Engine and
// reacts. Plans are plain data with a CSV round trip so scenarios are
// reproducible artifacts, and FaultInjector synthesizes random plans from a
// seed so whole scenario populations replay bit-for-bit.
//
// This header lives in sim (below workload in the layering): arrivals name
// programs by string and are resolved against the workload catalogue by the
// dynamic runtime, not here.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "corun/common/expected.hpp"
#include "corun/common/units.hpp"

namespace corun::sim {

enum class FaultKind {
  kArrival,       ///< a new job enters the system mid-run
  kCancel,        ///< a queued or running job is withdrawn
  kCapSet,        ///< the power cap moves (raise, lower, or disappear)
  kProfileNoise,  ///< the planner's profile of one job drifts by a factor
  kMeterDropout,  ///< the power sensor freezes for a window
};

[[nodiscard]] const char* fault_kind_name(FaultKind k) noexcept;
[[nodiscard]] Expected<FaultKind> parse_fault_kind(const std::string& text);

/// One scheduled perturbation. Only the fields relevant to `kind` are
/// meaningful; the rest keep their defaults (and serialize as "-").
struct FaultEvent {
  Seconds time = 0.0;
  FaultKind kind = FaultKind::kArrival;

  // kArrival: program name (resolved against the workload catalogue, or
  // "micro:<GBps>"), input scale, and the lowering seed of the new instance.
  std::string program;
  double input_scale = 1.0;
  std::uint64_t seed = 0;

  // kCancel / kProfileNoise: index into the dynamic job list at application
  // time; -1 picks deterministically from the eligible jobs using `seed`.
  int target = -1;

  // kCapSet: the new cap; nullopt removes the cap entirely.
  std::optional<Watts> cap;

  // kProfileNoise: multiplier applied to the planner's view of the target
  // job's standalone times (ground truth is untouched).
  double factor = 1.0;

  // kMeterDropout: how long the sensor stays frozen.
  Seconds duration = 0.0;
};

/// A time-sorted event stream. Construct directly, parse from CSV, or
/// generate with FaultInjector.
struct FaultPlan {
  std::vector<FaultEvent> events;

  /// Stable-sorts events by time (equal times keep insertion order).
  void sort();

  /// Error when an event is malformed (a time not >= 0, an arrival without
  /// a program, an input scale, cap, factor or dropout duration not > 0;
  /// NaN fails every test) or the stream is not time-sorted; true
  /// otherwise.
  [[nodiscard]] Expected<bool> validate() const;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events.size(); }
};

/// CSV round trip. Schema (one row per event, "-" for unused fields):
///   time,kind,program,input_scale,seed,target,cap,factor,duration
/// `kind` is arrival|cancel|cap|noise|dropout; `cap` of "-" on a cap row
/// means "remove the cap".
void fault_plan_to_csv(const FaultPlan& plan, std::ostream& out);
[[nodiscard]] Expected<FaultPlan> fault_plan_from_csv(const std::string& text);

/// Knobs of the random plan generator. Counts say how many events of each
/// kind to draw; times are uniform in (0, horizon); everything is
/// deterministic in the injector's seed.
struct FaultInjectorOptions {
  int arrivals = 2;
  int cancellations = 0;
  int cap_changes = 1;
  int noise_events = 1;
  int dropouts = 0;
  Seconds horizon = 120.0;  ///< events land in (0, horizon)

  /// Program pool arrivals draw from (workload-catalogue names).
  std::vector<std::string> programs{"srad", "lud", "hotspot", "backprop"};
  double min_input_scale = 0.6;
  double max_input_scale = 1.2;

  Watts cap_low = 12.0;   ///< cap changes draw uniformly in [cap_low, cap_high]
  Watts cap_high = 35.0;
  double noise_low = 0.85;   ///< ~ the paper's ±15% prediction error
  double noise_high = 1.18;
  Seconds dropout_min = 2.0;
  Seconds dropout_max = 10.0;
};

/// Seeded random scenario generator. Same options + seed => byte-identical
/// plan, on any machine, at any --jobs count.
class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectorOptions options, std::uint64_t seed);

  [[nodiscard]] FaultPlan generate() const;

  [[nodiscard]] const FaultInjectorOptions& options() const noexcept {
    return options_;
  }

 private:
  FaultInjectorOptions options_;
  std::uint64_t seed_;
};

/// Parses the `--events` flag's generator spec form:
///   random:arrivals=2,cancels=1,caps=1,noise=1,dropouts=1,
///          horizon=120,seed=7[,cap-low=12,cap-high=35][,programs=srad+lud]
/// Unknown keys are an error; omitted keys keep FaultInjectorOptions
/// defaults; values are read whole (see parse_number) and must pass
/// check_generator_ranges. Returns the generated plan, or FaultPlan::
/// validate's error (an empty `programs=` pool draws arrivals without a
/// program). Text not starting with "random:" is rejected (the tools treat
/// it as a CSV path instead).
[[nodiscard]] Expected<FaultPlan> generate_fault_plan_from_spec(
    const std::string& spec);

/// The range check both `random:` event generators (this one and the
/// fleet's) run on a spec before any draw: every event count >= 0, a
/// finite horizon > 0, and caps with 0 < low <= high. kParse.
[[nodiscard]] Expected<bool> check_generator_ranges(
    std::initializer_list<int> counts, Seconds horizon, Watts cap_low,
    Watts cap_high);

}  // namespace corun::sim
