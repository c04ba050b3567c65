// Machine backends: the one selector that picks how a simulated machine is
// stepped, and the factory that builds it.
//
// Four fidelity tiers (the gem5 Atomic/Timing/O3 pattern, adapted to this
// simulator), each one value of BackendKind and each a sim::Engine:
//
//  - tick    : EngineMode::kTick, the fixed-tick reference oracle.
//  - event   : EngineMode::kEvent, event-horizon stepping (the default);
//              bit-identical to tick.
//  - analytic: EngineMode::kAnalytic, closed-form window advance — same
//              control decisions, no per-tick job replay (tolerance in
//              engine.hpp's file comment).
//  - replay  : ReplayMachine — an Engine fed recorded per-phase demand
//              traces (demand_trace.hpp) instead of the launched jobs'
//              synthetic descriptors. Replaying a trace recorded by
//              RecordingMachine reproduces the recording run byte-
//              identically.
//
// A BackendSpec names a backend ("tick" | "event" | "analytic" |
// "replay:PATH"); the process-wide default comes from CORUN_BACKEND and is
// overridden by the tools' --backend flag (tool_io). make_machine_model()
// is the one construction point the runtime/profiler layers go through,
// and the only code that maps a spec to EngineOptions::mode.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "corun/common/expected.hpp"
#include "corun/sim/demand_trace.hpp"
#include "corun/sim/engine.hpp"

namespace corun::sim {

enum class BackendKind {
  kTick,      ///< fixed-tick reference oracle
  kEvent,     ///< event-horizon engine, bit-identical to tick
  kAnalytic,  ///< closed-form window advance (tolerance: engine.hpp)
  kReplay,    ///< replay a recorded demand trace byte-identically
};

[[nodiscard]] const char* backend_kind_name(BackendKind k) noexcept;

struct BackendSpec {
  BackendKind kind = BackendKind::kEvent;
  std::string replay_path;  ///< demand-trace CSV, kReplay only

  /// "tick" | "event" | "analytic" | "replay:PATH"
  [[nodiscard]] std::string name() const;
};

/// Parses "tick" | "event" | "analytic" | "replay:PATH" (the tools'
/// --backend flag and the CORUN_BACKEND environment variable).
[[nodiscard]] Expected<BackendSpec> parse_backend_spec(const std::string& text);

/// Process-wide default backend. Seeded at startup from CORUN_BACKEND when
/// set (bad values fall back to event; the tools' --backend flag reports
/// them properly); tools override it via set_default_backend. Its stepping
/// core is default_engine_mode() (engine.hpp).
[[nodiscard]] BackendSpec default_backend_spec();

/// Installs `spec` as the process-wide default backend.
void set_default_backend(const BackendSpec& spec);

/// Constructs the backend `spec` names. The tick, event and analytic kinds
/// set EngineOptions::mode to their core, whatever the caller passed; a
/// replay machine keeps the caller's mode. kReplay loads the trace from
/// spec.replay_path — pre-validate the path with load_demand_trace for a
/// friendly error; this CHECK-fails on a missing or malformed file. With
/// `record` set the machine is a RecordingMachine on the spec's core;
/// recording a replay CHECK-fails, since its trace would be the replayed
/// one and not a new measurement.
[[nodiscard]] std::unique_ptr<Engine> make_machine_model(
    const MachineConfig& config, EngineOptions options,
    const BackendSpec& spec = default_backend_spec(), bool record = false);

/// An Engine that records the per-phase demands of every launch into a
/// DemandTrace (save with save_demand_trace; see demand_trace.hpp for the
/// CSV schema). The run itself is unchanged.
class RecordingMachine final : public Engine {
 public:
  using Engine::Engine;

  JobId launch(const JobSpec& spec, DeviceKind device) override;

  [[nodiscard]] const DemandTrace& trace() const noexcept { return trace_; }

 private:
  DemandTrace trace_;
};

/// The replay backend: each launch(spec, device) consumes the first
/// not-yet-replayed recorded launch with the same (name, device) and runs
/// it with the *recorded* profile substituted for the spec's — so the
/// trajectory is the recorded machine's, whatever descriptors the caller
/// synthesizes. CHECK-fails when the trace has no matching launch left.
class ReplayMachine final : public Engine {
 public:
  ReplayMachine(const MachineConfig& config, const EngineOptions& options,
                DemandTrace trace);
  ~ReplayMachine() override;

  JobId launch(const JobSpec& spec, DeviceKind device) override;

  /// Recorded launches not yet consumed by a launch() call.
  [[nodiscard]] std::size_t remaining_launches() const noexcept;

 private:
  std::vector<RecordedLaunch> launches_;
  std::vector<bool> consumed_;
  std::size_t phases_replayed_ = 0;
};

/// Result of a single standalone (no co-runner) execution.
struct StandaloneResult {
  Seconds time = 0.0;
  GBps avg_bandwidth = 0.0;
  Watts avg_power = 0.0;
  Joules energy = 0.0;
};

/// Runs one job alone on a fresh machine of `backend` at pinned levels with
/// no cap, returning its measured time/bandwidth/power. Used by the
/// profilers, the characterizer and the micro-benchmark calibration solver.
[[nodiscard]] StandaloneResult run_standalone(
    const MachineConfig& config, const JobSpec& spec, DeviceKind device,
    FreqLevel cpu_level, FreqLevel gpu_level, std::uint64_t seed = 42,
    const BackendSpec& backend = default_backend_spec());

}  // namespace corun::sim
