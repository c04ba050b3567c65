#include "corun/sim/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "corun/common/check.hpp"
#include "corun/common/trace/trace.hpp"

namespace corun::sim {

namespace {

std::mutex g_default_backend_mutex;

/// Seeded lazily from CORUN_BACKEND (tick | event | analytic | replay:PATH).
/// Bad values fall back to event; the tools' --backend flag reports them
/// properly.
BackendSpec& default_backend_storage() {
  static BackendSpec spec = [] {
    if (const char* env = std::getenv("CORUN_BACKEND")) {
      const auto parsed = parse_backend_spec(env);
      if (parsed.has_value()) return parsed.value();
    }
    return BackendSpec{};
  }();
  return spec;
}

/// The stepping core a backend of `kind` runs on; a replay machine runs on
/// `replay_mode`.
EngineMode core_of(BackendKind kind, EngineMode replay_mode) {
  switch (kind) {
    case BackendKind::kTick: return EngineMode::kTick;
    case BackendKind::kEvent: return EngineMode::kEvent;
    case BackendKind::kAnalytic: return EngineMode::kAnalytic;
    case BackendKind::kReplay: break;
  }
  return replay_mode;
}

/// default_engine_mode()'s value, kept beside the default spec so reading
/// it (every EngineOptions construction) takes no lock.
std::atomic<EngineMode>& default_mode_storage() {
  static std::atomic<EngineMode> mode{[] {
    const std::lock_guard<std::mutex> lock(g_default_backend_mutex);
    return core_of(default_backend_storage().kind, EngineMode::kEvent);
  }()};
  return mode;
}

}  // namespace

EngineMode default_engine_mode() noexcept {
  return default_mode_storage().load(std::memory_order_relaxed);
}

const char* backend_kind_name(BackendKind k) noexcept {
  switch (k) {
    case BackendKind::kTick: return "tick";
    case BackendKind::kEvent: return "event";
    case BackendKind::kAnalytic: return "analytic";
    case BackendKind::kReplay: return "replay";
  }
  return "?";
}

std::string BackendSpec::name() const {
  if (kind == BackendKind::kReplay) return "replay:" + replay_path;
  return backend_kind_name(kind);
}

Expected<BackendSpec> parse_backend_spec(const std::string& text) {
  BackendSpec spec;
  for (const BackendKind kind :
       {BackendKind::kTick, BackendKind::kEvent, BackendKind::kAnalytic}) {
    if (text == backend_kind_name(kind)) {
      spec.kind = kind;
      return spec;
    }
  }
  if (text.rfind("replay:", 0) == 0) {
    spec.kind = BackendKind::kReplay;
    spec.replay_path = text.substr(7);
    if (spec.replay_path.empty()) {
      return fail("replay backend needs a trace path: replay:PATH",
                  ErrorCategory::kInvalidArgument);
    }
    return spec;
  }
  return fail("unknown backend '" + text +
                  "' (expected tick|event|analytic|replay:PATH)",
              ErrorCategory::kInvalidArgument);
}

BackendSpec default_backend_spec() {
  const std::lock_guard<std::mutex> lock(g_default_backend_mutex);
  return default_backend_storage();
}

void set_default_backend(const BackendSpec& spec) {
  {
    const std::lock_guard<std::mutex> lock(g_default_backend_mutex);
    default_backend_storage() = spec;
  }
  default_mode_storage().store(core_of(spec.kind, EngineMode::kEvent),
                               std::memory_order_relaxed);
}

std::unique_ptr<Engine> make_machine_model(const MachineConfig& config,
                                           EngineOptions options,
                                           const BackendSpec& spec,
                                           bool record) {
  if (trace::enabled()) trace::counter_add("backend.evaluations", 1.0);
  options.mode = core_of(spec.kind, options.mode);
  if (record) {
    CORUN_CHECK_MSG(spec.kind != BackendKind::kReplay,
                    "cannot record a demand trace while replaying one");
    return std::make_unique<RecordingMachine>(config, options);
  }
  if (spec.kind != BackendKind::kReplay) {
    return std::make_unique<Engine>(config, options);
  }
  auto trace = load_demand_trace(spec.replay_path);
  CORUN_CHECK_MSG(trace.has_value(), "replay backend: cannot load demand trace");
  return std::make_unique<ReplayMachine>(config, options,
                                         std::move(trace.value()));
}

JobId RecordingMachine::launch(const JobSpec& spec, DeviceKind device) {
  const DeviceProfile& profile = spec.profile(device);
  for (std::size_t i = 0; i < profile.phases().size(); ++i) {
    DemandTraceRow row;
    row.job = spec.name;
    row.device = device;
    row.launch_time = now();
    row.phase_idx = i;
    row.phase = profile.phases()[i];
    row.llc = profile.llc();
    trace_.rows.push_back(std::move(row));
  }
  return Engine::launch(spec, device);
}

ReplayMachine::ReplayMachine(const MachineConfig& config,
                             const EngineOptions& options, DemandTrace trace)
    : Engine(config, options) {
  auto launches = trace.launches();
  CORUN_CHECK_MSG(launches.has_value(), "replay backend: malformed trace");
  launches_ = std::move(launches.value());
  consumed_.assign(launches_.size(), false);
}

ReplayMachine::~ReplayMachine() {
  if (!trace::enabled()) return;
  trace::counter_add("backend.replay_phases",
                     static_cast<double>(phases_replayed_));
}

JobId ReplayMachine::launch(const JobSpec& spec, DeviceKind device) {
  for (std::size_t i = 0; i < launches_.size(); ++i) {
    if (consumed_[i] || launches_[i].device != device ||
        launches_[i].name != spec.name) {
      continue;
    }
    consumed_[i] = true;
    phases_replayed_ += launches_[i].profile.phases().size();
    // Substitute the recorded demands for the synthetic descriptor; the
    // engine only ever reads the launched device's profile.
    JobSpec replayed = spec;
    if (device == DeviceKind::kCpu) {
      replayed.cpu = launches_[i].profile;
    } else {
      replayed.gpu = launches_[i].profile;
    }
    return Engine::launch(replayed, device);
  }
  CORUN_CHECK_MSG(false, "replay backend: no recorded launch left for job '" +
                             spec.name + "'");
  return -1;
}

std::size_t ReplayMachine::remaining_launches() const noexcept {
  std::size_t n = 0;
  for (const bool c : consumed_) {
    if (!c) ++n;
  }
  return n;
}

StandaloneResult run_standalone(const MachineConfig& config,
                                const JobSpec& spec, DeviceKind device,
                                FreqLevel cpu_level, FreqLevel gpu_level,
                                std::uint64_t seed,
                                const BackendSpec& backend) {
  EngineOptions options;
  options.seed = seed;
  options.policy = GovernorPolicy::kNone;
  options.record_samples = false;
  const std::unique_ptr<Engine> machine =
      make_machine_model(config, options, backend);
  machine->set_ceilings(cpu_level, gpu_level);
  const JobId id = machine->launch(spec, device);
  machine->run_until_idle();
  const JobStats& st = machine->stats(id);
  StandaloneResult result;
  result.time = st.runtime();
  result.avg_bandwidth = st.avg_bandwidth();
  result.energy = machine->telemetry().energy();
  result.avg_power = machine->telemetry().avg_power();
  return result;
}

}  // namespace corun::sim
