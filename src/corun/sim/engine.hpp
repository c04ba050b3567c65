// Discrete-time co-simulation engine for the integrated CPU-GPU machine.
// backend.hpp builds it (and its record/replay subclasses) from a
// BackendSpec.
//
// The machine model advances in fixed ticks (default 10 ms). Each tick
// it (a) resolves shared-memory contention between the domains' offered
// loads via a short fixed-point iteration, (b) advances every resident job
// through its phase trace at the contention- and frequency-adjusted rate,
// (c) evaluates the package power model and RAPL-style sampling, and (d)
// runs the DVFS governor control loop at its own cadence.
//
// Three stepping cores implement those semantics (EngineOptions::mode, set
// from the backend spec by make_machine_model):
//
//  - kTick: the legacy reference oracle. Every tick re-resolves contention,
//    re-evaluates the power model, and walks every job — O(full model) per
//    10 ms of simulated time regardless of whether anything changed.
//  - kEvent: the event-horizon core (the default). Between state-change
//    events — a governor decision that moves a frequency level, a resident
//    job crossing a phase boundary or finishing, a launch, or a ceiling
//    change — every tick is identical, so the expensive dynamics (contention
//    fixed point, LLC coupling, package power) are computed once per event
//    horizon and cached. The per-tick remainder is strength-reduced to a few
//    flops per resident job, replaying exactly the arithmetic the tick
//    oracle performs so both modes produce bit-identical trajectories
//    (pinned by tests/sim/test_engine_equivalence.cpp). The replay keeps
//    the clock, the per-tick telemetry sums and one or two resident jobs'
//    progress in locals for a window. The meter is drawn at the oracle's
//    points, so the noise stream stays in lockstep, but a draw is valued
//    (log, divide, sqrt) only where its reading is observed: sample points,
//    windowed caps, a dropout's start, and violation tests and capped
//    cadence steps the meter's per-horizon bound cannot settle against the
//    governor's thresholds (power_meter.hpp). A capped replay window runs the governor inline,
//    through cadence points, with the engine's one PowerGovernor, and ends
//    only where it moves a level. On control-free machines
//    (GovernorPolicy::kNone, no sample recording, no thermal model) nothing
//    observes the meter, so the replay skips its draws and runs through
//    governor and sample points, stopping only at phase boundaries and run
//    ends.
//  - kAnalytic: the closed-form core. Shares kEvent's horizon replay,
//    control-free windows included, but defers the per-job advance to one
//    bulk update per replayed window (rem -= n * ref_per_tick instead of n
//    subtractions). Every clock/threshold decision still uses the
//    oracle's exact per-tick `now_ += dt` chain, so control decisions are
//    bit-identical; only the job-progress accumulators carry closed-form
//    rounding. Tolerance: 1e-9 on the scenario corpus
//    (tests/sim/test_backend_equivalence.cpp) and on profiled times,
//    bandwidths and degradation-grid cells. When a phase ends within
//    rounding of a tick edge the bulk update can move that boundary by one
//    tick, so a profile entry's average power and energy agree with
//    kEvent's within 1e-3 relative (4e-4 measured on the 8-job batch;
//    bench/bench_backend_fidelity.cpp CHECKs the bound).
//
// Placement rules mirror the paper's platform semantics: the GPU executes
// one OpenCL job at a time; the CPU normally does too, but *can* be
// oversubscribed (several resident jobs time-share with context-switch and
// locality penalties) because the Default baseline launches its whole CPU
// partition at once and relies on the OS scheduler — the behaviour behind
// Fig. 11's "Default worse than Random" result.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "corun/common/expected.hpp"
#include "corun/common/rng.hpp"
#include "corun/sim/governor.hpp"
#include "corun/sim/job.hpp"
#include "corun/sim/machine.hpp"
#include "corun/sim/memory_system.hpp"
#include "corun/sim/power_meter.hpp"
#include "corun/sim/power_model.hpp"
#include "corun/sim/telemetry.hpp"
#include "corun/sim/thermal.hpp"

namespace corun::sim {

using JobId = int;

/// Emitted when a job finishes.
struct JobEvent {
  JobId id = -1;
  std::string name;
  DeviceKind device = DeviceKind::kCpu;
  Seconds finish_time = 0.0;
};

/// Lifetime record of one launched job.
struct JobStats {
  JobId id = -1;
  std::string name;
  DeviceKind device = DeviceKind::kCpu;
  Seconds start_time = 0.0;
  Seconds finish_time = 0.0;
  double total_gb = 0.0;  ///< bytes moved, in GB
  bool finished = false;
  bool cancelled = false;  ///< evicted mid-run; finish_time = cancel time

  [[nodiscard]] Seconds runtime() const noexcept {
    return finish_time - start_time;
  }
  [[nodiscard]] GBps avg_bandwidth() const noexcept {
    const Seconds rt = runtime();
    return rt > 0.0 ? total_gb / rt : 0.0;
  }
};

/// Aggregate stepping statistics of one engine instance: where simulated
/// time went and how well the event-horizon cache worked. Maintained
/// unconditionally (plain integer adds), exported as trace counters when
/// tracing is enabled (see common/trace), and readable in tests.
struct EngineCounters {
  std::uint64_t ticks = 0;            ///< simulated ticks, all modes
  std::uint64_t replayed_ticks = 0;   ///< ticks executed by the horizon replay
  std::uint64_t analytic_ticks = 0;   ///< ticks closed-formed by kAnalytic
  std::uint64_t horizons = 0;         ///< dynamics rebuilds (event horizons)
  std::uint64_t cache_hit_ticks = 0;  ///< event-mode ticks served from cache
  std::uint64_t job_events = 0;       ///< job completions emitted
  std::uint64_t cancellations = 0;    ///< jobs evicted via cancel()
  std::uint64_t cap_updates = 0;      ///< mid-run set_power_cap calls
};

/// Stepping core of the engine (see the file comment). Each machine backend
/// but replay is one of these cores; BackendSpec names them.
enum class EngineMode {
  kTick,      ///< legacy fixed-tick loop; the equivalence oracle
  kEvent,     ///< event-horizon stepping; bit-identical and 10-100x faster
  kAnalytic,  ///< closed-form window advance; tolerance in the file comment
};

[[nodiscard]] const char* engine_mode_name(EngineMode m) noexcept;

/// Process-wide default for EngineOptions::mode: the stepping core of the
/// default backend (backend.hpp's default_backend_spec, seeded from
/// CORUN_BACKEND and replaced by the tools' --backend flag), with a replay
/// default mapping to kEvent. Defined in backend.cpp, which owns the
/// default. Engines built through make_machine_model take their core from
/// the spec instead; this default reaches the engines code constructs
/// directly, so `CORUN_BACKEND=tick ctest` runs them on the tick oracle.
[[nodiscard]] EngineMode default_engine_mode() noexcept;

/// Process-wide default for EngineOptions::thermal. Seeded at startup from
/// CORUN_THERMAL (on|1 / off|0) when set; tools override it from
/// `--thermal`; library callers can override per engine. Defaults to off —
/// the thermal model is strictly opt-in and the disabled path is the
/// pre-thermal engine bit for bit.
[[nodiscard]] bool default_thermal() noexcept;
void set_default_thermal(bool enabled) noexcept;

/// Parses "on"/"1"/"off"/"0" (as accepted by the tools' --thermal flag and
/// CORUN_THERMAL).
[[nodiscard]] Expected<bool> parse_thermal(const std::string& text);

struct EngineOptions {
  EngineMode mode = default_engine_mode();  ///< stepping core
  Seconds dt = 0.01;                ///< simulation tick
  Seconds governor_interval = 0.1;  ///< DVFS control-loop cadence
  Seconds sample_interval = 1.0;    ///< power-trace sampling cadence
  std::uint64_t seed = 42;          ///< meter-noise stream seed
  Watts meter_noise_stddev = 0.25;
  std::optional<Watts> power_cap;   ///< nullopt = uncapped
  GovernorPolicy policy = GovernorPolicy::kNone;
  bool record_samples = true;       ///< keep the PowerSample trace

  /// RAPL-style enforcement window: the governor reacts to an exponential
  /// moving average of measured power with this time constant, instead of
  /// instantaneous readings. 0 = instantaneous (the default; what the rest
  /// of the suite uses). A window tolerates short bursts above the cap as
  /// long as the average fits — the PL1 semantics of real RAPL.
  Seconds cap_window = 0.0;

  /// Engage the RC thermal network and the temperature-triggered throttle
  /// governor (MachineConfig::thermal holds the constants; docs/thermal.md
  /// the semantics). Temperatures advance bit-identically across stepping
  /// modes; off (the default) leaves every trajectory untouched.
  bool thermal = default_thermal();
};

/// The simulated machine. RecordingMachine and ReplayMachine (backend.hpp)
/// derive from it and override launch() alone; everything else is this
/// class's, whatever the backend.
class Engine {
 public:
  Engine(MachineConfig config, EngineOptions options);

  /// Emits the final counter values (plus cap-violation ticks) to the trace
  /// layer when tracing is enabled. The counters themselves are always
  /// maintained; only the export is conditional.
  virtual ~Engine();

  /// Starts a job on `device` immediately. The GPU must be idle; the CPU may
  /// already host jobs (time sharing).
  virtual JobId launch(const JobSpec& spec, DeviceKind device);

  /// Sets the requested (ceiling) frequency levels; the governor will not
  /// raise either domain above its ceiling. With GovernorPolicy::kNone the
  /// levels snap to the ceilings at the next control step.
  void set_ceilings(FreqLevel cpu, FreqLevel gpu);

  /// Replaces the power cap mid-run (nullopt = uncapped). Enforcement still
  /// requires a non-kNone governor policy; the governor reacts from the next
  /// tick on. Both engine modes apply the change at the same tick boundary,
  /// so trajectories stay bit-identical across modes.
  void set_power_cap(std::optional<Watts> cap);

  /// Evicts a running job: it stops consuming machine time at the current
  /// clock, its stats freeze with `cancelled` set (finished stays false),
  /// and the machine re-resolves contention without it. Returns false when
  /// `id` is not currently running (already finished, cancelled, or
  /// unknown).
  bool cancel(JobId id);

  /// Starts/ends a transient power-meter fault: while active the sensor
  /// serves its last healthy reading (the governor flies blind) but the
  /// noise RNG keeps advancing so replay stays deterministic.
  void set_meter_dropout(bool active);
  [[nodiscard]] bool meter_dropout() const noexcept;

  [[nodiscard]] DvfsState dvfs() const noexcept { return dvfs_; }
  [[nodiscard]] Seconds now() const noexcept { return now_; }
  [[nodiscard]] bool idle() const noexcept { return running_.empty(); }
  [[nodiscard]] bool device_idle(DeviceKind d) const noexcept;
  [[nodiscard]] int resident_count(DeviceKind d) const noexcept;

  /// Advances time until at least one job finishes (returning all the
  /// completions from that tick) or until the machine is idle (empty vector).
  std::vector<JobEvent> run_until_event();

  /// Advances exactly `duration` simulated seconds.
  std::vector<JobEvent> run_for(Seconds duration);

  /// Advances until at least one job finishes or `duration` simulated
  /// seconds elapse, whichever comes first — run_until_event with a
  /// deadline. Returns the completions of the finishing tick (empty when
  /// the deadline or idleness cut the run short).
  std::vector<JobEvent> run_for_until_event(Seconds duration);

  /// Drains every running job.
  void run_until_idle();

  /// Fraction of the job's total (reference) work completed, in [0, 1].
  /// 1.0 for finished jobs. Used by online profiling to extrapolate a full
  /// runtime from a truncated sample.
  [[nodiscard]] double progress(JobId id) const;

  [[nodiscard]] const Telemetry& telemetry() const noexcept {
    return telemetry_;
  }
  [[nodiscard]] const EngineCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const JobStats& stats(JobId id) const;
  [[nodiscard]] std::vector<JobStats> all_stats() const;
  [[nodiscard]] const MachineConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const EngineOptions& options() const noexcept {
    return options_;
  }

 private:
  struct RunningJob {
    JobId id = -1;
    JobSpec spec;
    DeviceKind device = DeviceKind::kCpu;
    std::size_t phase_idx = 0;
    Seconds phase_ref_remaining = 0.0;
  };

  /// Per-device per-tick execution summary.
  struct DeviceTick {
    double demand = 0.0;        ///< offered GB/s this tick
    double compute_share = 0.0; ///< wall fraction core-bound
    double memory_share = 0.0;  ///< wall fraction memory-stalled
    bool busy = false;
  };

  /// Per-resident-job constants of one event horizon: between events every
  /// tick consumes the same reference time and moves the same bytes, so the
  /// per-tick advance is two flops per job (replayed, not closed-formed, to
  /// stay bit-identical with the tick oracle's repeated subtraction).
  struct JobAdvance {
    std::size_t run_idx = 0;     ///< index into running_
    JobStats* stats = nullptr;   ///< map nodes are pointer-stable
    double stretch = 1.0;        ///< wall stretch of the job's current phase
    Seconds budget = 0.0;        ///< job-visible execution time per tick
    Seconds ref_per_tick = 0.0;  ///< reference seconds consumed per tick
    double gb_per_tick = 0.0;    ///< bytes moved per tick (GB)
  };

  /// Everything the tick loop recomputes each tick that is in fact constant
  /// between events. Invalidated by launches, ceiling changes, governor
  /// level moves, and phase boundaries.
  struct DynamicsCache {
    bool valid = false;
    DeviceTick cpu_tick;
    DeviceTick gpu_tick;
    ContentionResult contention;
    Watts true_power = 0.0;
    /// Per-tick thermal injection of this horizon (thermal runs only):
    /// derived from the same cached domain powers as true_power, so the
    /// per-tick temperature step replays identically in every mode.
    ThermalVec thermal_b{};
    std::vector<JobAdvance> jobs;
  };

  /// Mutable thermal state (engaged only when EngineOptions::thermal): the
  /// precomputed per-tick RC map, the node temperatures (persist across
  /// event horizons exactly like job progress), and the throttle governor's
  /// per-domain allowance and rate-limit clocks.
  struct ThermalState {
    ThermalNetwork net;
    ThermalVec temps{};
    FreqLevel limit[kDeviceCount] = {0, 0};   ///< max level the heat allows
    Seconds next_down[kDeviceCount] = {0.0, 0.0};
    Seconds next_up[kDeviceCount] = {0.0, 0.0};
  };

  /// Governor policy kNone, no sample recording, no thermal model: no meter
  /// reading can reach an output, so the event and analytic cores skip the
  /// meter's draws and replay through governor and sample points.
  [[nodiscard]] bool control_free() const noexcept {
    return options_.policy == GovernorPolicy::kNone &&
           !options_.record_samples && !thermal_;
  }
  void tick(std::vector<JobEvent>& events);
  /// The DVFS control block of one tick (shared verbatim by every mode).
  /// Returns true when a frequency level or ceiling moved.
  bool governor_phase();
  /// The meter reading cap enforcement acts on: the noisy sample itself, or
  /// under a PL1 window (cap_window > 0) its exponential moving average.
  Watts read_cap_meter();
  /// The reading a capped governor cadence step acts on. The tick oracle
  /// and windowed caps read in full; otherwise the meter draws and stands
  /// in the true power for the reading whenever its bound settles both of
  /// the governor's thresholds (the cap and the cap minus the raise
  /// margin), so the step moves exactly the levels the reading would.
  Watts cadence_reading();
  /// The violation test of a capped tick off the governor cadence: the
  /// read_cap_meter() reading when it exceeds the cap, else nullopt. The
  /// tick oracle and windowed caps read in full; otherwise the meter draws
  /// and computes the reading only when its bound cannot settle the test.
  std::optional<Watts> over_cap_reading();
  /// The temperature control block of one tick, run right after the
  /// governor by every mode: trips drop a domain's thermal allowance when
  /// its node is above the trip point, releases raise it back once the node
  /// cools through the hysteresis band, and the current DVFS levels are
  /// clamped to the allowance. Returns true when anything moved (an event —
  /// the horizon ends). A no-op returning false when thermal is off.
  bool thermal_phase();
  /// Advances the RC network by one tick from the horizon's cached
  /// injection and folds the tick into the peak/throttled-time accounting.
  void thermal_advance_tick(const ThermalVec& b);
  /// package_power decomposed into its per-domain terms — same calls in the
  /// same order, so the returned total is bit-identical to the fused
  /// package_power() while exposing the split the thermal injection needs.
  [[nodiscard]] Watts package_power_split(const DeviceActivity& cpu,
                                          const DeviceActivity& gpu,
                                          Watts* cpu_power,
                                          Watts* gpu_power) const;
  /// Recomputes the contention/LLC fixed point, activity shares, package
  /// power, and per-job advance constants for the current machine state.
  void rebuild_dynamics();
  /// The sample point of a tick whose sampling cadence is due: records a
  /// power (and thermal) sample when recording is on, then re-arms the
  /// cadence. `contention` supplies the achieved bandwidths of the tick.
  /// Callers test the cadence inline; it is due on few ticks.
  void sample_point(const ContentionResult& contention);
  /// One tick of the event engine: cheap advance on the cached horizon, or
  /// a full boundary tick when a job crosses a phase edge.
  void step_event_tick(std::vector<JobEvent>& events);
  /// Everything in an event-engine tick after the governor: rebuild when
  /// dirty, advance, power accounting, sampling, clock. Split out so
  /// replay_horizon's capped loop can inline the governor part.
  void complete_event_tick(bool dvfs_moved, std::vector<JobEvent>& events);
  /// Event/analytic driver shared by the run_* entry points. `end` bounds
  /// the clock exactly like the tick-mode loops; stop_on_event mirrors
  /// run_until_event's "return the first completion tick" contract.
  void run_event_mode(std::vector<JobEvent>& events,
                      const std::optional<Seconds>& end, bool stop_on_event);
  /// Replays as many whole ticks of the current horizon as provably contain
  /// no event (no sample point, no phase boundary, `end` not reached) in
  /// one tight loop — the same arithmetic step_event_tick performs, with
  /// every event check hoisted. Under an active power cap the loop still
  /// draws the meter every tick (lockstep with the oracle) and inlines the
  /// governor — cadence steps and violation tests — breaking out only when
  /// it moves a level. Uncapped windows also stop at governor cadence
  /// points. Control-free machines skip the draws and the governor/sample
  /// stops. kAnalytic defers the per-job advance to one advance_jobs_bulk
  /// per window and stops at cadence points. A no-op when the cache is
  /// cold.
  void replay_horizon(const std::optional<Seconds>& end,
                      std::vector<JobEvent>& events);
  /// What a replayed window does per tick besides the clock, telemetry and
  /// job advance: nothing but cadence bookkeeping (control-free), nothing
  /// (uncapped), or the governor (capped).
  enum class ReplayKind { kControlFree, kUncapped, kCapped };
  /// replay_horizon's loop for one window of at most `budget` ticks before
  /// `stop`. The clock, the telemetry sums and — for kHeld = 1 or 2 resident
  /// jobs — the jobs' progress live in locals for the window; kHeld = 0
  /// advances no job per tick (kAnalytic, or an idle machine) and -1
  /// advances them in place.
  template <ReplayKind kKind, int kHeld>
  void replay_window(std::size_t budget, Seconds stop,
                     std::vector<JobEvent>& events);
  /// Books `ticks` replayed ticks of the current horizon: the counters and,
  /// under kAnalytic, the bulk job advance.
  void bank_replayed_ticks(std::size_t ticks);
  /// Advances every cached job by one tick of the current horizon (the
  /// oracle's per-tick subtraction, strength-reduced).
  void advance_jobs_one_tick();
  /// Advances every cached job by `ticks` ticks in one fused update
  /// (rem -= n * ref_per_tick). Only called when the horizon bound proves
  /// no phase boundary lies inside the window.
  void advance_jobs_bulk(std::size_t ticks);
  [[nodiscard]] DeviceTick device_demand(DeviceKind d, double sigma) const;
  void advance_jobs(DeviceKind d, double sigma, Seconds dt,
                    std::vector<JobEvent>& events);
  [[nodiscard]] double oversubscription_overhead(DeviceKind d) const;
  [[nodiscard]] double locality_sigma(DeviceKind d, double sigma) const;
  /// Extra memory slowdown of device `d` from the partner's LLC footprint.
  [[nodiscard]] double llc_slowdown(DeviceKind d, GBps partner_demand) const;

  MachineConfig config_;
  EngineOptions options_;
  MemorySystem memory_;
  PowerModel power_model_;
  PowerMeter meter_;
  PowerGovernor governor_;  ///< options_.policy at the current power cap

  Seconds now_ = 0.0;
  DvfsState dvfs_;
  double sigma_[kDeviceCount] = {1.0, 1.0};
  Watts last_true_power_ = 0.0;
  Seconds next_governor_ = 0.0;
  Seconds next_sample_ = 0.0;

  JobId next_id_ = 0;
  bool ema_primed_ = false;  ///< power_ema_ holds a reading
  std::vector<RunningJob> running_;
  std::map<JobId, JobStats> stats_;
  Telemetry telemetry_;
  Watts power_ema_ = 0.0;  ///< windowed-cap moving average (cap_window > 0)

  EngineCounters counters_;
  DynamicsCache cache_;
  std::optional<ThermalState> thermal_;
};

}  // namespace corun::sim
