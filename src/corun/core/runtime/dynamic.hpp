// DynamicRuntime: the long-running-service execution mode.
//
// CoRunRuntime executes one planned schedule to completion and assumes the
// world holds still. DynamicRuntime drops that assumption: it drives the
// same simulated machine through a FaultPlan — jobs arriving and being
// withdrawn mid-run, the power cap moving under thermal pressure, the
// planner's profiles drifting, the power sensor dropping out — and reacts
// online. On every event it re-plans the not-yet-started jobs with the
// configured scheduler (any registry name), degrades gracefully when the
// profile DB lacks an arriving job, and leaves transition-window cap
// enforcement to the reactive governor, which keeps running throughout.
//
// The degradation ladder for an arriving job the planner has never seen:
//   1. already profiled under the same instance name   -> use as-is;
//   2. another instance of the same program profiled   -> cross-run scaling
//      (ProfileDB::add_scaled_instance, Sec. V-C's third acquisition path);
//   3. unknown program                                 -> online-profiler
//      sampling at sparse levels (simulated seconds are reported as
//      sampling_overhead);
//   4. the configured scheduler still fails to plan    -> Default scheduler;
//   5. Default fails too                               -> naive placement
//      (append to the shorter device queue at max frequency) — also the
//      arrival policy when rescheduling is disabled, where an arrival
//      joins the shared queue instead if the installed plan pulls from one.
//
// Everything is deterministic: same batch + plan + options => byte-identical
// reports at any --jobs count and in either engine mode (pinned by
// tests/runtime/test_dynamic_runtime.cpp and the CLI pipeline test).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "corun/core/model/degradation_space.hpp"
#include "corun/core/runtime/report.hpp"
#include "corun/core/sched/plan_cache/plan_cache.hpp"
#include "corun/profile/profile_db.hpp"
#include "corun/sim/backend.hpp"
#include "corun/sim/engine.hpp"
#include "corun/sim/fault_injector.hpp"
#include "corun/sim/machine.hpp"
#include "corun/workload/batch.hpp"

namespace corun::runtime {

struct DynamicOptions {
  std::optional<Watts> cap;            ///< initial cap (events may move it)
  sim::GovernorPolicy policy = sim::GovernorPolicy::kGpuBiased;
  std::uint64_t seed = 42;
  Seconds sample_interval = 1.0;       ///< power-trace cadence
  bool record_power_trace = true;
  Seconds cap_window = 0.0;            ///< RAPL PL1 window (0 = instantaneous)
  /// Engage the RC thermal model + throttle governor (docs/thermal.md).
  bool thermal = sim::default_thermal();

  /// Machine backend the run executes on (tick/event/analytic/replay).
  sim::BackendSpec backend = sim::default_backend_spec();
  /// When non-empty, record the run's per-phase demand trace (see
  /// demand_trace.hpp) and write it here after execution. A replay backend
  /// cannot be recorded (ContractViolation).
  std::string record_trace_path;

  /// Registry name of the planner used for the initial plan and every
  /// re-plan ("hcs+", "hcs", "default", "random", "bnb", "exhaustive").
  std::string scheduler = "hcs+";

  /// When false, events still apply but the plan never changes: arrivals
  /// are placed naively and the governor alone absorbs cap moves — the
  /// baseline the fault-injection suite compares against.
  bool reschedule = true;

  /// Online-sampling window for rung 3 of the degradation ladder.
  Seconds online_sample_seconds = 2.0;

  /// Memoized plan cache consulted before every (re-)plan; null = off. May
  /// be shared across runs — repeated sub-problems (same pending set at the
  /// same cap) then skip the search entirely. Cache state never changes the
  /// schedules or reports produced (exact hits replay identical requests,
  /// and every planner — a budget-truncated B&B included — is a
  /// deterministic function of its request), so runs stay byte-identical
  /// with it on or off.
  std::shared_ptr<sched::PlanCache> plan_cache;

  /// Has no effect; kept so existing callers that set it still compile.
  bool plan_repair = true;
};

/// What happened when one fault event was applied.
struct AppliedFault {
  sim::FaultEvent event;
  Seconds applied_at = 0.0;  ///< simulation time of the applying tick
  bool replanned = false;
  std::string detail;        ///< human-readable resolution, e.g. the target
};

/// Which planner produced the plan currently being executed.
enum class PlannerRung {
  kConfigured,       ///< options.scheduler via the registry
  kDefaultFallback,  ///< rung 4: Default after the configured planner failed
  kNaive,            ///< rung 5: append-to-shorter-queue
};

[[nodiscard]] const char* planner_rung_name(PlannerRung r) noexcept;

struct DynamicReport {
  /// Ground truth over the jobs that ran (cancelled jobs are excluded from
  /// `jobs` and listed in `cancelled`; makespan covers finished jobs).
  ExecutionReport report;

  std::vector<AppliedFault> log;       ///< every applied event, in order
  std::vector<std::string> cancelled;  ///< instance names evicted by events

  std::size_t replans = 0;
  std::size_t arrivals = 0;
  std::size_t cancellations = 0;
  std::size_t cap_changes = 0;
  std::size_t noise_events = 0;
  std::size_t dropouts = 0;

  std::size_t cross_run_estimates = 0;  ///< ladder rung 2 uses
  std::size_t online_sampled = 0;       ///< ladder rung 3 uses
  std::size_t fallback_plans = 0;       ///< rung 4/5 plans
  Seconds sampling_overhead = 0.0;      ///< simulated seconds of rung-3 runs
  PlannerRung last_rung = PlannerRung::kConfigured;

  /// Plan-cache activity during this run: deltas of the cache's counters
  /// taken around it (all zero when no cache was configured). Exact only
  /// while no other run uses the cache; runs sharing it concurrently, such
  /// as a fleet's machines, count each other's lookups. Reported separately
  /// from summary() so cached and uncached runs stay byte-identical on
  /// stdout.
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;

  [[nodiscard]] std::string summary() const;
};

class DynamicRuntime {
 public:
  DynamicRuntime(sim::MachineConfig config, DynamicOptions options);

  /// Runs `batch` under `plan` to completion (all non-cancelled jobs,
  /// including arrivals, finish). `db` and `grid` are the offline model
  /// artifacts; the runtime works on a private copy of `db` so noise events
  /// and sampled arrivals never leak back to the caller.
  [[nodiscard]] DynamicReport execute(const workload::Batch& batch,
                                      const profile::ProfileDB& db,
                                      const model::DegradationGrid& grid,
                                      const sim::FaultPlan& plan) const;

  [[nodiscard]] const sim::MachineConfig& machine() const noexcept {
    return config_;
  }
  [[nodiscard]] const DynamicOptions& options() const noexcept {
    return options_;
  }

 private:
  sim::MachineConfig config_;
  DynamicOptions options_;
};

}  // namespace corun::runtime
