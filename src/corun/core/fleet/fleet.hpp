// Fleet: a datacenter-level power budget over N simulated APUs.
//
// The paper schedules one integrated CPU-GPU node under one cap. This layer
// composes N of those nodes — each a full `sim::Engine`-backed machine with
// its own `DynamicRuntime`, planner, and governor — under a single global
// power budget, the shape a facility power manager has to solve: one breaker
// number divided across hundreds of nodes, re-divided whenever the world
// moves (a node drops out, the facility cap changes, a wave of jobs lands).
//
// Execution model (two deterministic passes):
//   1. *Translate.* One chronological walk over the FleetPlan turns each
//      fleet-level event into per-machine FaultPlan events: a dropout
//      becomes kCancel events draining that machine's jobs, a global cap
//      change or arrival wave becomes per-machine kCapSet / kArrival
//      events. After every fleet event the configured PowerStrategy
//      re-divides the budget over the live machines' demand estimates and
//      the new caps are appended as kCapSet events — each machine then
//      replans through the ordinary DynamicRuntime cap-change path (plan
//      cache, degradation ladder), completely unchanged.
//   2. *Execute.* All N machines run independently — per-machine seed
//      task_seed(options.seed, m) — fanned out on the shared TaskPool with
//      ordered-merge discipline, so the FleetReport is byte-identical at
//      any --jobs count. Machine m's runtime never observes machine k.
//
// Demand model: a machine's demand is the sum of its assigned jobs'
// predicted best solo times at max frequency (min over devices of the
// descriptor base time, input-scaled) — an *assigned-work* estimate, not a
// remaining-work one: it is computable in the translate pass before any
// machine has run, which is what keeps the translation independent of
// execution and the whole fleet embarrassingly parallel. Dropouts zero a
// machine's demand; waves add to it.
//
// Global-cap accounting: every machine samples power on the same 1 s-aligned
// grid from t=0, so fleet power at sample k is the sum of true_power over
// machines still running at that instant (finished machines draw nothing).
// A sample violates the global cap when that sum exceeds the cap in force
// at its timestamp; violations inside `transition_window` seconds after a
// fleet event are transient (governors re-converging) and reported
// separately from steady-state ones, which the bench requires to be zero.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "corun/common/expected.hpp"
#include "corun/common/units.hpp"
#include "corun/core/fleet/power_strategy.hpp"
#include "corun/core/runtime/dynamic.hpp"
#include "corun/core/runtime/experiment.hpp"
#include "corun/core/sched/plan_cache/plan_cache.hpp"
#include "corun/sim/backend.hpp"
#include "corun/sim/engine.hpp"
#include "corun/sim/machine.hpp"

namespace corun::fleet {

// ---- fleet event streams --------------------------------------------------

enum class FleetEventKind {
  kDropout,    ///< one machine dies; its queued and running jobs are lost
  kGlobalCap,  ///< the facility budget moves (or disappears)
  kWave,       ///< a wave of jobs arrives, spread over the live machines
};

[[nodiscard]] const char* fleet_event_kind_name(FleetEventKind k) noexcept;
[[nodiscard]] Expected<FleetEventKind> parse_fleet_event_kind(
    const std::string& text);

/// One fleet-level perturbation. Only the fields relevant to `kind` are
/// meaningful (the rest serialize as "-").
struct FleetEvent {
  Seconds time = 0.0;
  FleetEventKind kind = FleetEventKind::kGlobalCap;

  /// kDropout: which machine dies; -1 picks deterministically from the
  /// live machines using `seed`.
  int machine = -1;

  /// kGlobalCap: the new facility budget; nullopt removes the cap (every
  /// live machine is then allocated its ceiling).
  std::optional<Watts> cap;

  /// kWave: how many jobs arrive; they round-robin over the live machines
  /// from a seeded starting offset, programs and input scales drawn from
  /// the fleet's program pool with `seed`.
  std::size_t jobs = 0;

  std::uint64_t seed = 0;
};

/// A time-sorted fleet event stream with the same plain-data discipline as
/// sim::FaultPlan: construct directly, parse from CSV, or generate from a
/// seeded `random:` spec.
struct FleetPlan {
  std::vector<FleetEvent> events;

  /// Stable-sorts events by time (equal times keep insertion order).
  void sort();

  /// Error when an event is malformed (negative time, non-positive cap,
  /// wave without jobs, dropout machine index < -1) or the stream is not
  /// time-sorted; true otherwise.
  [[nodiscard]] Expected<bool> validate() const;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events.size(); }
};

/// CSV round trip. Schema (one row per event, "-" for unused fields):
///   time,kind,machine,cap,jobs,seed
/// `kind` is dropout|cap|wave; a `cap` of "-" on a cap row removes the cap.
void fleet_plan_to_csv(const FleetPlan& plan, std::ostream& out);
[[nodiscard]] Expected<FleetPlan> fleet_plan_from_csv(const std::string& text);

/// Parses the `--events` generator spec form:
///   random:dropouts=1,caps=1,waves=1,horizon=60,wave_jobs=4,
///          cap_low=10,cap_high=14,seed=7
/// `machines` scales the drawn global caps: cap events draw uniformly in
/// [cap_low, cap_high] watts *per machine* and multiply by the fleet size,
/// so one spec works at 64 and at 1024 machines. Unknown keys are an
/// error; omitted keys keep defaults. Text not starting with "random:" is
/// rejected (the tool treats it as a CSV path instead).
[[nodiscard]] Expected<FleetPlan> generate_fleet_plan_from_spec(
    const std::string& spec, std::size_t machines);

// ---- fleet configuration --------------------------------------------------

/// Default program pool fleet workloads draw from (catalogue names).
[[nodiscard]] const std::vector<std::string>& default_fleet_programs();

/// The reference batch whose profiles every fleet machine shares: one
/// instance per pool program, named exactly like the program, at input
/// scale 1.0 — the anchor instances the DynamicRuntime's cross-run scaling
/// rung derives every machine-local instance from (no machine ever falls to
/// online sampling, which keeps N-machine artifact cost O(pool), not O(N)).
[[nodiscard]] Expected<workload::Batch> make_fleet_reference_batch(
    const std::vector<std::string>& programs);

struct FleetOptions {
  std::size_t machines = 64;
  Watts global_cap = 704.0;  ///< facility budget divided over the machines

  /// PowerStrategy name ("uniform", "demand", "marginal").
  std::string strategy = "uniform";
  StrategyLimits limits;

  std::uint64_t seed = 42;

  /// Per-machine base job count, plus a seeded extra in [0, jobs_spread]
  /// so machine demands are heterogeneous (what separates the demand-aware
  /// strategies from uniform).
  std::size_t jobs_per_machine = 3;
  std::size_t jobs_spread = 0;

  /// Program pool (empty = default_fleet_programs()).
  std::vector<std::string> programs;
  double min_input_scale = 0.7;
  double max_input_scale = 1.3;

  /// Per-machine runtime knobs, passed through to DynamicRuntime.
  sim::BackendSpec backend = sim::default_backend_spec();
  std::string scheduler = "hcs+";
  std::shared_ptr<sched::PlanCache> plan_cache;  ///< shared across machines
  Seconds sample_interval = 1.0;

  /// Samples within this many seconds after a fleet event count as
  /// transient, not steady-state, for global-cap violation accounting.
  Seconds transition_window = 2.0;
};

// ---- fleet reports --------------------------------------------------------

/// One machine's slice of the fleet run.
struct MachineOutcome {
  std::size_t index = 0;
  bool dropped = false;
  std::size_t assigned_jobs = 0;  ///< initial + wave arrivals
  Watts initial_cap = 0.0;
  runtime::DynamicReport report;  ///< the full per-machine dynamic report
};

/// The budget division in force from `time` onward.
struct AllocationRecord {
  Seconds time = 0.0;
  std::optional<Watts> global_cap;  ///< nullopt = uncapped
  std::size_t live = 0;
  std::vector<Watts> caps;  ///< one per machine; dead machines hold 0
};

struct FleetReport {
  std::vector<MachineOutcome> machines;   ///< index order, always N entries
  std::vector<AllocationRecord> allocations;  ///< t=0 plus one per event

  Seconds fleet_makespan = 0.0;  ///< max machine makespan
  std::size_t total_jobs = 0;    ///< assigned across the fleet
  std::size_t finished_jobs = 0;
  std::size_t lost_jobs = 0;     ///< drained by dropouts

  std::size_t dropouts = 0;
  std::size_t cap_changes = 0;
  std::size_t waves = 0;
  std::size_t redivisions = 0;   ///< strategy invocations after t=0

  /// Global-cap accounting over the aligned sample grid (see file comment).
  std::size_t power_samples = 0;
  std::size_t over_cap = 0;         ///< any sample with fleet power > cap
  std::size_t steady_over_cap = 0;  ///< excluding post-event transients
  Watts worst_overshoot = 0.0;

  /// Aggregated planner activity across the fleet.
  std::size_t replans = 0;
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;

  /// Deterministic human-readable digest printed at limited precision, so
  /// the event and analytic backends (equal to ~1e-9) render identically —
  /// the property the CI fleet smoke pins byte-for-byte.
  [[nodiscard]] std::string summary() const;
};

// ---- the fleet ------------------------------------------------------------

class Fleet {
 public:
  Fleet(sim::MachineConfig config, FleetOptions options);

  /// Runs the whole fleet through `plan` against shared model artifacts
  /// (build them once with build_artifacts over make_fleet_reference_batch;
  /// every machine reuses them read-only). Errors on invalid options or a
  /// plan whose caps cannot fund the live machines' floors.
  [[nodiscard]] Expected<FleetReport> execute(
      const FleetPlan& plan, const runtime::ModelArtifacts& artifacts) const;

  [[nodiscard]] const sim::MachineConfig& machine() const noexcept {
    return config_;
  }
  [[nodiscard]] const FleetOptions& options() const noexcept {
    return options_;
  }

 private:
  sim::MachineConfig config_;
  FleetOptions options_;
};

}  // namespace corun::fleet
