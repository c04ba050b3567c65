#include "corun/sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <type_traits>

#include "corun/common/check.hpp"
#include "corun/common/trace/trace.hpp"

namespace corun::sim {

namespace {

/// Startup seeding for the thermal model: CORUN_THERMAL=on|1 flips the
/// whole process (every EngineOptions default) without touching flags. Bad
/// values fall back to off; the tools' --thermal flag reports them properly.
bool initial_thermal() {
  if (const char* env = std::getenv("CORUN_THERMAL")) {
    const std::string_view v(env);
    return v == "on" || v == "1";
  }
  return false;
}

std::atomic<bool> g_default_thermal{initial_thermal()};

/// True when a governor or throttle step moved a frequency level or ceiling
/// (an event: the horizon ends).
bool levels_moved(const DvfsState& before, const DvfsState& after) {
  return before.cpu_level != after.cpu_level ||
         before.gpu_level != after.gpu_level ||
         before.cpu_ceiling != after.cpu_ceiling ||
         before.gpu_ceiling != after.gpu_ceiling;
}

}  // namespace

const char* engine_mode_name(EngineMode m) noexcept {
  switch (m) {
    case EngineMode::kTick: return "tick";
    case EngineMode::kEvent: return "event";
    case EngineMode::kAnalytic: return "analytic";
  }
  return "?";
}

bool default_thermal() noexcept {
  return g_default_thermal.load(std::memory_order_relaxed);
}

void set_default_thermal(bool enabled) noexcept {
  g_default_thermal.store(enabled, std::memory_order_relaxed);
}

Expected<bool> parse_thermal(const std::string& text) {
  if (text == "on" || text == "1") return true;
  if (text == "off" || text == "0") return false;
  return fail("unknown thermal setting '" + text + "' (expected on|off)",
              ErrorCategory::kInvalidArgument);
}

Engine::Engine(MachineConfig config, EngineOptions options)
    : config_(std::move(config)),
      options_(options),
      memory_(config_.memory),
      power_model_(config_.power, config_.cpu_ladder, config_.gpu_ladder),
      meter_(Rng::fork_seed(options.seed, "power-meter"),
             options.meter_noise_stddev),
      governor_(options.policy, options.power_cap) {
  CORUN_CHECK(options_.dt > 0.0);
  CORUN_CHECK(options_.governor_interval >= options_.dt);
  CORUN_CHECK(options_.sample_interval >= options_.dt);
  dvfs_.cpu_ceiling = config_.cpu_ladder.max_level();
  dvfs_.gpu_ceiling = config_.gpu_ladder.max_level();
  if (options_.policy == GovernorPolicy::kNone) {
    dvfs_.cpu_level = dvfs_.cpu_ceiling;
    dvfs_.gpu_level = dvfs_.gpu_ceiling;
  } else {
    // Cap-managed machines boot conservatively and let the governor ramp
    // up — this is what keeps the first power samples under the cap.
    dvfs_.cpu_level = 0;
    dvfs_.gpu_level = 0;
  }
  if (options_.thermal) {
    // Boot in thermal equilibrium with zero dissipation: every node at
    // ambient, the full ladder available to both domains.
    ThermalState ts{.net = ThermalNetwork(config_.thermal, options_.dt)};
    const double amb = config_.thermal.ambient_c;
    ts.temps = {amb, amb, amb};
    ts.limit[0] = config_.cpu_ladder.max_level();
    ts.limit[1] = config_.gpu_ladder.max_level();
    thermal_.emplace(std::move(ts));
  }
}

Engine::~Engine() {
  if (!trace::enabled()) return;
  trace::counter_add("engine.ticks", static_cast<double>(counters_.ticks));
  trace::counter_add("engine.replayed_ticks",
                     static_cast<double>(counters_.replayed_ticks));
  trace::counter_add("engine.horizons",
                     static_cast<double>(counters_.horizons));
  trace::counter_add("engine.cache_hit_ticks",
                     static_cast<double>(counters_.cache_hit_ticks));
  trace::counter_add("engine.job_events",
                     static_cast<double>(counters_.job_events));
  trace::counter_add("engine.cap_violation_ticks",
                     static_cast<double>(telemetry_.cap_stats().over_cap));
  trace::counter_add("engine.cancellations",
                     static_cast<double>(counters_.cancellations));
  trace::counter_add("engine.cap_updates",
                     static_cast<double>(counters_.cap_updates));
  if (options_.mode == EngineMode::kAnalytic) {
    // Backend observability (see docs/architecture.md § "Machine backends"):
    // how many ticks the closed-form fast path absorbed on this machine.
    trace::counter_add("backend.analytic_replayed_ticks",
                       static_cast<double>(counters_.analytic_ticks));
  }
  if (options_.thermal) {
    // Thermal observability (see docs/thermal.md § "Counters").
    const ThermalStats& th = telemetry_.thermal_stats();
    trace::counter_add("thermal.trips", static_cast<double>(th.trips));
    trace::counter_add("thermal.releases", static_cast<double>(th.releases));
    trace::counter_add("thermal.throttled_seconds", th.throttled_time);
    trace::counter_add("thermal.peak_cpu_c", th.peak_cpu_c);
    trace::counter_add("thermal.peak_gpu_c", th.peak_gpu_c);
    trace::counter_add("thermal.peak_package_c", th.peak_package_c);
  }
}

JobId Engine::launch(const JobSpec& spec, DeviceKind device) {
  CORUN_CHECK_MSG(!spec.profile(device).empty(),
                  "job has no profile for the target device");
  if (device == DeviceKind::kGpu) {
    CORUN_CHECK_MSG(device_idle(DeviceKind::kGpu),
                    "the integrated GPU runs one job at a time");
  }
  RunningJob run;
  run.id = next_id_++;
  run.spec = spec;
  run.device = device;
  run.phase_idx = 0;
  run.phase_ref_remaining = spec.profile(device).phases().front().dur_ref;

  JobStats st;
  st.id = run.id;
  st.name = spec.name;
  st.device = device;
  st.start_time = now_;
  stats_[run.id] = st;
  running_.push_back(std::move(run));
  cache_.valid = false;  // residency changed: demand/contention/power move
  return next_id_ - 1;
}

void Engine::set_ceilings(FreqLevel cpu, FreqLevel gpu) {
  cache_.valid = false;  // levels may snap or clamp below
  dvfs_.cpu_ceiling = config_.cpu_ladder.clamp(cpu);
  dvfs_.gpu_ceiling = config_.gpu_ladder.clamp(gpu);
  if (options_.policy == GovernorPolicy::kNone) {
    dvfs_.cpu_level = dvfs_.cpu_ceiling;
    dvfs_.gpu_level = dvfs_.gpu_ceiling;
  } else {
    // A lowered ceiling applies immediately; a raised one waits for the
    // governor to confirm there is power headroom.
    dvfs_.cpu_level = std::min(dvfs_.cpu_level, dvfs_.cpu_ceiling);
    dvfs_.gpu_level = std::min(dvfs_.gpu_level, dvfs_.gpu_ceiling);
  }
}

void Engine::set_power_cap(std::optional<Watts> cap) {
  governor_ = PowerGovernor(options_.policy, cap);
  cache_.valid = false;
  options_.power_cap = cap;
  ++counters_.cap_updates;
}

bool Engine::cancel(JobId id) {
  const auto it = std::find_if(running_.begin(), running_.end(),
                               [&](const RunningJob& r) { return r.id == id; });
  if (it == running_.end()) return false;
  JobStats& st = stats_.at(id);
  st.cancelled = true;
  st.finish_time = now_;
  running_.erase(it);
  cache_.valid = false;  // residency changed: demand/contention/power move
  ++counters_.cancellations;
  return true;
}

void Engine::set_meter_dropout(bool active) {
  // The dropout changes what the governor *sees* from the next read on.
  cache_.valid = false;
  meter_.set_dropout(active);
}

bool Engine::meter_dropout() const noexcept { return meter_.dropout(); }

bool Engine::device_idle(DeviceKind d) const noexcept {
  return resident_count(d) == 0;
}

int Engine::resident_count(DeviceKind d) const noexcept {
  int n = 0;
  for (const RunningJob& r : running_) {
    if (r.device == d) ++n;
  }
  return n;
}

double Engine::oversubscription_overhead(DeviceKind d) const {
  const int n = resident_count(d);
  if (d != DeviceKind::kCpu || n <= 1) return 1.0;
  return static_cast<double>(n) * (1.0 + config_.cs_overhead * (n - 1));
}

double Engine::llc_slowdown(DeviceKind d, GBps partner_demand) const {
  if (partner_demand <= 0.0) return 1.0;
  // Aggregate the victim side's sensitivity and the partner side's
  // footprint across residents (the CPU may time-share several jobs).
  double sensitivity = 0.0;
  double partner_footprint = 0.0;
  for (const RunningJob& r : running_) {
    const LlcBehavior& llc = r.spec.profile(r.device).llc();
    if (r.device == d) {
      sensitivity = std::max(sensitivity, llc.sensitivity);
    } else {
      partner_footprint += llc.footprint_mb;
    }
  }
  if (sensitivity <= 0.0 || partner_footprint <= 0.0) return 1.0;
  const double eviction =
      std::min(1.0, partner_footprint / config_.llc_capacity_mb);
  const double pressure =
      std::min(1.0, partner_demand / config_.llc_pressure_saturation_bw);
  return 1.0 + sensitivity * eviction * pressure;
}

double Engine::locality_sigma(DeviceKind d, double sigma) const {
  const int n = resident_count(d);
  if (d != DeviceKind::kCpu || n <= 1) return sigma;
  return sigma * (1.0 + config_.cs_locality_penalty * (n - 1));
}

Engine::DeviceTick Engine::device_demand(DeviceKind d, double sigma) const {
  DeviceTick out;
  const int n = resident_count(d);
  if (n == 0) return out;
  out.busy = true;

  const FrequencyLadder& ladder = config_.ladder(d);
  const FreqLevel level = d == DeviceKind::kCpu ? dvfs_.cpu_level : dvfs_.gpu_level;
  const double phi = ladder.fraction(level);
  const double sens = config_.mem_bw_freq_sensitivity;
  const double sig_eff = locality_sigma(d, sigma);
  const double share = 1.0 / oversubscription_overhead(d);

  for (const RunningJob& r : running_) {
    if (r.device != d) continue;
    const Phase& ph = r.spec.profile(d).phases()[r.phase_idx];
    // Offered load is the *uncontended* rate at the current frequency: the
    // contention model turns offered loads into slowdowns, so feeding the
    // already-slowed demand back in would double-count the contention.
    out.demand += phase_demand(ph, phi, 1.0, sens) * share;
    const double stretch = phase_stretch(ph, phi, sig_eff, sens);
    const double compute = (ph.compute_frac / phi) / stretch;
    out.compute_share += compute * share;
    out.memory_share += (1.0 - compute) * share;
  }
  // Oversubscription overhead time behaves like active (switching) cycles.
  const double slack = 1.0 - (out.compute_share + out.memory_share);
  if (slack > 0.0 && n > 1) out.compute_share += slack;
  out.compute_share = std::min(out.compute_share, 1.0);
  out.memory_share = std::min(out.memory_share, 1.0 - out.compute_share);
  return out;
}

void Engine::advance_jobs(DeviceKind d, double sigma, Seconds dt,
                          std::vector<JobEvent>& events) {
  const int n = resident_count(d);
  if (n == 0) return;

  const FrequencyLadder& ladder = config_.ladder(d);
  const FreqLevel level = d == DeviceKind::kCpu ? dvfs_.cpu_level : dvfs_.gpu_level;
  const double phi = ladder.fraction(level);
  const double sens = config_.mem_bw_freq_sensitivity;
  const double sig_eff = locality_sigma(d, sigma);
  const double overhead = oversubscription_overhead(d);

  for (RunningJob& r : running_) {
    if (r.device != d) continue;
    const auto& phases = r.spec.profile(d).phases();
    Seconds budget = dt / overhead;  // job-visible execution time this tick
    JobStats& st = stats_[r.id];
    while (budget > 0.0 && r.phase_idx < phases.size()) {
      const Phase& ph = phases[r.phase_idx];
      const double stretch = phase_stretch(ph, phi, sig_eff, sens);
      const Seconds wall_to_finish = r.phase_ref_remaining * stretch;
      if (wall_to_finish <= budget) {
        budget -= wall_to_finish;
        st.total_gb += r.phase_ref_remaining * (1.0 - ph.compute_frac) * ph.mem_bw;
        ++r.phase_idx;
        if (r.phase_idx < phases.size()) {
          r.phase_ref_remaining = phases[r.phase_idx].dur_ref;
        }
      } else {
        const Seconds ref_consumed = budget / stretch;
        r.phase_ref_remaining -= ref_consumed;
        st.total_gb += ref_consumed * (1.0 - ph.compute_frac) * ph.mem_bw;
        budget = 0.0;
      }
    }
    if (r.phase_idx >= phases.size()) {
      // Finished inside this tick; bill the unused budget back for a finer
      // finish-time estimate.
      st.finished = true;
      st.finish_time = now_ + dt - budget * overhead;
      events.push_back(JobEvent{r.id, st.name, d, st.finish_time});
      ++counters_.job_events;
    }
  }
  std::erase_if(running_, [&](const RunningJob& r) {
    return r.device == d && stats_.at(r.id).finished;
  });
}

bool Engine::governor_phase() {
  const DvfsState before = dvfs_;
  const bool cadence = now_ + 1e-12 >= next_governor_;

  // DVFS control loop (reacts to the previous tick's measured power).
  // Down-steps happen every tick a violation is measured (RAPL-style fast
  // clamping); up-steps only at the governor cadence (conservative ramp).
  if (options_.policy != GovernorPolicy::kNone && options_.power_cap) {
    if (cadence) {
      dvfs_ = governor_.step(cadence_reading(), dvfs_);
      next_governor_ = now_ + options_.governor_interval;
    } else if (const std::optional<Watts> over = over_cap_reading()) {
      dvfs_ = governor_.step(*over, dvfs_);
    }
  } else if (cadence) {
    // Without a cap or a policy PowerGovernor::step ignores the reading, so
    // only the tick oracle values it; the other cores just draw, and on a
    // control-free machine, where no reading is ever observed, not even
    // that.
    Watts measured = 0.0;
    if (options_.mode == EngineMode::kTick) {
      measured = meter_.read(last_true_power_);
    } else if (!control_free()) {
      meter_.draw(last_true_power_);
    }
    dvfs_ = governor_.step(measured, dvfs_);
    next_governor_ = now_ + options_.governor_interval;
  }
  return levels_moved(before, dvfs_);
}

Watts Engine::cadence_reading() {
  if (options_.mode == EngineMode::kTick || options_.cap_window > 0.0) {
    return read_cap_meter();
  }
  const Watts cap = *options_.power_cap;
  return meter_.threshold_reading(last_true_power_,
                                  cap - PowerGovernor::kRaiseMargin, cap);
}

std::optional<Watts> Engine::over_cap_reading() {
  const Watts cap = *options_.power_cap;
  if (options_.mode == EngineMode::kTick || options_.cap_window > 0.0) {
    const Watts measured = read_cap_meter();
    if (!(measured > cap)) return std::nullopt;
    return measured;
  }
  if (!meter_.exceeds(last_true_power_, cap)) return std::nullopt;
  return meter_.reading();
}

Watts Engine::read_cap_meter() {
  const Watts measured = meter_.read(last_true_power_);
  if (options_.cap_window <= 0.0) return measured;
  // PL1 semantics: the control signal is the windowed average, so short
  // bursts ride above the cap as long as the average fits.
  if (!ema_primed_) {
    power_ema_ = measured;
    ema_primed_ = true;
  } else {
    const double alpha = std::min(1.0, options_.dt / options_.cap_window);
    power_ema_ += alpha * (measured - power_ema_);
  }
  return power_ema_;
}

bool Engine::thermal_phase() {
  if (!thermal_) return false;
  ThermalState& th = *thermal_;
  const ThermalParams& p = config_.thermal;
  bool moved = false;
  for (std::size_t d = 0; d < kDeviceCount; ++d) {
    const bool is_cpu = d == 0;
    const double temp = th.temps[is_cpu ? kThermalCpu : kThermalGpu];
    const double trip = is_cpu ? p.cpu_trip_c : p.gpu_trip_c;
    const FrequencyLadder& ladder =
        is_cpu ? config_.cpu_ladder : config_.gpu_ladder;
    if (temp > trip) {
      // Hot: shed one level per throttle_interval. A trip re-arms the
      // release clock so the allowance never bounces straight back up.
      if (th.limit[d] > 0 && now_ + 1e-12 >= th.next_down[d]) {
        --th.limit[d];
        th.next_down[d] = now_ + p.throttle_interval;
        th.next_up[d] = now_ + p.release_interval;
        telemetry_.note_thermal_trip();
        moved = true;
      }
    } else if (temp < trip - p.hysteresis_c) {
      // Cooled through the hysteresis band: hand one level back per
      // release_interval. Between the thresholds the allowance holds —
      // the dead band that keeps the throttle from chattering.
      if (th.limit[d] < ladder.max_level() &&
          now_ + 1e-12 >= th.next_up[d]) {
        ++th.limit[d];
        th.next_up[d] = now_ + p.release_interval;
        telemetry_.note_thermal_release();
        moved = true;
      }
    }
  }
  // Clamp the operating point to the allowance. The power governor may push
  // a level above it at any cadence; the clamp re-applies every tick, so
  // after a release the level only rises once the governor next confirms
  // there is power headroom (the governor owns up-moves).
  const FreqLevel cpu = std::min(dvfs_.cpu_level, th.limit[0]);
  const FreqLevel gpu = std::min(dvfs_.gpu_level, th.limit[1]);
  if (cpu != dvfs_.cpu_level || gpu != dvfs_.gpu_level) {
    dvfs_.cpu_level = cpu;
    dvfs_.gpu_level = gpu;
    moved = true;
  }
  return moved;
}

void Engine::thermal_advance_tick(const ThermalVec& b) {
  ThermalState& th = *thermal_;
  th.temps = th.net.step(th.temps, b);
  const bool throttled = th.limit[0] < dvfs_.cpu_ceiling ||
                         th.limit[1] < dvfs_.gpu_ceiling;
  telemetry_.note_thermal_tick(th.temps[kThermalCpu], th.temps[kThermalGpu],
                               th.temps[kThermalPackage], throttled,
                               options_.dt);
}

Watts Engine::package_power_split(const DeviceActivity& cpu,
                                  const DeviceActivity& gpu, Watts* cpu_power,
                                  Watts* gpu_power) const {
  // Mirrors PowerModel::package_power term by term, summed left to right,
  // so the total is the exact double the fused call returns.
  *cpu_power =
      power_model_.device_power(DeviceKind::kCpu, dvfs_.cpu_level, cpu);
  *gpu_power =
      power_model_.device_power(DeviceKind::kGpu, dvfs_.gpu_level, gpu);
  return power_model_.uncore() + *cpu_power + *gpu_power;
}

void Engine::tick(std::vector<JobEvent>& events) {
  const Seconds dt = options_.dt;

  (void)governor_phase();
  (void)thermal_phase();

  // Resolve memory contention from the uncontended offered loads, then a
  // second pass so the activity shares reflect the resolved slowdowns.
  DeviceTick cpu_tick = device_demand(DeviceKind::kCpu, sigma_[0]);
  DeviceTick gpu_tick = device_demand(DeviceKind::kGpu, sigma_[1]);
  const ContentionResult contention = memory_.resolve(
      {.cpu_demand = cpu_tick.demand, .gpu_demand = gpu_tick.demand});
  // Second contention channel: LLC thrashing. Each device's memory phases
  // stretch further when the partner's working set evicts its own — scaled
  // by the partner's streaming pressure. This channel is invisible to the
  // bandwidth-only predictive model (as on the real machine).
  const double llc_cpu = llc_slowdown(DeviceKind::kCpu, gpu_tick.demand);
  const double llc_gpu = llc_slowdown(DeviceKind::kGpu, cpu_tick.demand);
  sigma_[0] = contention.cpu_slowdown * llc_cpu;
  sigma_[1] = contention.gpu_slowdown * llc_gpu;
  cpu_tick = device_demand(DeviceKind::kCpu, sigma_[0]);
  gpu_tick = device_demand(DeviceKind::kGpu, sigma_[1]);

  advance_jobs(DeviceKind::kCpu, sigma_[0], dt, events);
  advance_jobs(DeviceKind::kGpu, sigma_[1], dt, events);

  // Power accounting for the tick.
  const DeviceActivity cpu_act{.busy = cpu_tick.busy,
                               .compute_share = cpu_tick.compute_share,
                               .memory_share = cpu_tick.memory_share};
  const DeviceActivity gpu_act{.busy = gpu_tick.busy,
                               .compute_share = gpu_tick.compute_share,
                               .memory_share = gpu_tick.memory_share};
  Watts cpu_power = 0.0;
  Watts gpu_power = 0.0;
  if (thermal_) {
    last_true_power_ =
        package_power_split(cpu_act, gpu_act, &cpu_power, &gpu_power);
  } else {
    last_true_power_ = power_model_.package_power(
        dvfs_.cpu_level, dvfs_.gpu_level, cpu_act, gpu_act);
  }
  const bool cap_active = options_.power_cap.has_value();
  const Watts cap = options_.power_cap.value_or(0.0);
  telemetry_.record_tick(dt, last_true_power_, cpu_tick.busy, gpu_tick.busy,
                         cap, cap_active);
  if (thermal_) {
    thermal_advance_tick(
        thermal_->net.injection(cpu_power, gpu_power, power_model_.uncore()));
  }

  if (now_ + 1e-12 >= next_sample_) sample_point(contention);

  ++counters_.ticks;
  now_ += dt;
}

void Engine::sample_point(const ContentionResult& contention) {
  if (options_.record_samples) {
    telemetry_.record_sample(
        PowerSample{.t = now_,
                    .measured = meter_.read(last_true_power_),
                    .true_power = last_true_power_,
                    .cpu_level = dvfs_.cpu_level,
                    .gpu_level = dvfs_.gpu_level,
                    .cpu_bw = contention.cpu_achieved,
                    .gpu_bw = contention.gpu_achieved},
        options_.power_cap.value_or(0.0), options_.power_cap.has_value());
    if (thermal_) {
      telemetry_.record_thermal_sample(
          ThermalSample{.t = now_,
                        .cpu_c = thermal_->temps[kThermalCpu],
                        .gpu_c = thermal_->temps[kThermalGpu],
                        .package_c = thermal_->temps[kThermalPackage],
                        .cpu_limit = thermal_->limit[0],
                        .gpu_limit = thermal_->limit[1]});
    }
  }
  next_sample_ = now_ + options_.sample_interval;
}

void Engine::rebuild_dynamics() {
  // Mirrors the dynamics section of tick() exactly: same calls, same
  // operand values, so the cached results are the very doubles the tick
  // oracle would recompute on every identical tick.
  DeviceTick cpu_tick = device_demand(DeviceKind::kCpu, sigma_[0]);
  DeviceTick gpu_tick = device_demand(DeviceKind::kGpu, sigma_[1]);
  const ContentionResult contention = memory_.resolve(
      {.cpu_demand = cpu_tick.demand, .gpu_demand = gpu_tick.demand});
  const double llc_cpu = llc_slowdown(DeviceKind::kCpu, gpu_tick.demand);
  const double llc_gpu = llc_slowdown(DeviceKind::kGpu, cpu_tick.demand);
  sigma_[0] = contention.cpu_slowdown * llc_cpu;
  sigma_[1] = contention.gpu_slowdown * llc_gpu;
  cpu_tick = device_demand(DeviceKind::kCpu, sigma_[0]);
  gpu_tick = device_demand(DeviceKind::kGpu, sigma_[1]);

  cache_.cpu_tick = cpu_tick;
  cache_.gpu_tick = gpu_tick;
  cache_.contention = contention;
  const DeviceActivity cpu_act{.busy = cpu_tick.busy,
                               .compute_share = cpu_tick.compute_share,
                               .memory_share = cpu_tick.memory_share};
  const DeviceActivity gpu_act{.busy = gpu_tick.busy,
                               .compute_share = gpu_tick.compute_share,
                               .memory_share = gpu_tick.memory_share};
  if (thermal_) {
    Watts cpu_power = 0.0;
    Watts gpu_power = 0.0;
    cache_.true_power =
        package_power_split(cpu_act, gpu_act, &cpu_power, &gpu_power);
    // The thermal injection of this horizon: constant between events (it
    // depends only on the cached domain powers), so the per-tick step
    // T' = A·T + b replays the oracle's arithmetic exactly.
    cache_.thermal_b =
        thermal_->net.injection(cpu_power, gpu_power, power_model_.uncore());
  } else {
    cache_.true_power = power_model_.package_power(
        dvfs_.cpu_level, dvfs_.gpu_level, cpu_act, gpu_act);
  }

  // Per-job per-tick advance constants, derived with the same expressions
  // advance_jobs evaluates (identical operands => identical flops).
  cache_.jobs.clear();
  cache_.jobs.reserve(running_.size());
  const double sens = config_.mem_bw_freq_sensitivity;
  for (std::size_t i = 0; i < running_.size(); ++i) {
    const RunningJob& r = running_[i];
    const FrequencyLadder& ladder = config_.ladder(r.device);
    const FreqLevel level =
        r.device == DeviceKind::kCpu ? dvfs_.cpu_level : dvfs_.gpu_level;
    const double phi = ladder.fraction(level);
    const double sig_eff =
        locality_sigma(r.device, sigma_[r.device == DeviceKind::kCpu ? 0 : 1]);
    const double overhead = oversubscription_overhead(r.device);
    const Phase& ph = r.spec.profile(r.device).phases()[r.phase_idx];
    JobAdvance adv;
    adv.run_idx = i;
    adv.stats = &stats_.at(r.id);
    adv.stretch = phase_stretch(ph, phi, sig_eff, sens);
    adv.budget = options_.dt / overhead;
    adv.ref_per_tick = adv.budget / adv.stretch;
    adv.gb_per_tick = adv.ref_per_tick * (1.0 - ph.compute_frac) * ph.mem_bw;
    cache_.jobs.push_back(adv);
  }
  cache_.valid = true;
  ++counters_.horizons;
}

void Engine::step_event_tick(std::vector<JobEvent>& events) {
  // 1. Control: runs per tick exactly as the oracle does, so the meter's
  // draws (none on a control-free machine) and every governor decision stay
  // in lockstep. A level move — by the power governor or the thermal
  // throttle — is an event: the horizon ends and the dynamics recompute.
  const bool dvfs_moved = governor_phase();
  const bool thermal_moved = thermal_phase();
  complete_event_tick(dvfs_moved || thermal_moved, events);
}

void Engine::complete_event_tick(bool dvfs_moved,
                                 std::vector<JobEvent>& events) {
  const Seconds dt = options_.dt;

  if (dvfs_moved || !cache_.valid) {
    rebuild_dynamics();
  } else {
    ++counters_.cache_hit_ticks;
  }

  // 2. Advance jobs. A phase boundary or finish inside this tick is an
  // event: fall back to the oracle's advance loop for the crossing tick
  // (it handles multi-phase crossings and finish interpolation), then drop
  // the cache. Otherwise the whole tick is the strength-reduced replay.
  bool boundary = false;
  for (const JobAdvance& j : cache_.jobs) {
    const RunningJob& r = running_[j.run_idx];
    if (r.phase_ref_remaining * j.stretch <= j.budget) {
      boundary = true;
      break;
    }
  }
  if (boundary) {
    advance_jobs(DeviceKind::kCpu, sigma_[0], dt, events);
    advance_jobs(DeviceKind::kGpu, sigma_[1], dt, events);
    cache_.valid = false;  // phase indices / residency changed
  } else {
    advance_jobs_one_tick();
  }

  // 3. Power accounting: the package power of this horizon is cached.
  last_true_power_ = cache_.true_power;
  telemetry_.record_tick(dt, cache_.true_power, cache_.cpu_tick.busy,
                         cache_.gpu_tick.busy, options_.power_cap.value_or(0.0),
                         options_.power_cap.has_value());
  if (thermal_) thermal_advance_tick(cache_.thermal_b);

  if (now_ + 1e-12 >= next_sample_) sample_point(cache_.contention);

  ++counters_.ticks;
  now_ += dt;
}

void Engine::replay_horizon(const std::optional<Seconds>& end,
                            std::vector<JobEvent>& events) {
  if (!cache_.valid) return;

  // Phase boundaries get a conservative tick-count bound (two ticks of
  // slack against accumulated-rounding drift); governor/sample/end points
  // use the oracle's exact comparison per replayed tick. The per-tick path
  // re-checks everything exactly, so an underestimate only costs a few
  // slow ticks at the horizon's edge.
  constexpr double kSlack = 2.0;
  double safe = 1e18;
  for (const JobAdvance& j : cache_.jobs) {
    safe = std::min(
        safe, running_[j.run_idx].phase_ref_remaining / j.ref_per_tick - kSlack);
  }
  if (!(safe >= 1.0)) return;  // also rejects NaN
  const std::size_t budget = static_cast<std::size_t>(safe);
  const bool analytic = options_.mode == EngineMode::kAnalytic;
  const bool capped =
      options_.policy != GovernorPolicy::kNone && options_.power_cap;

  // Where the window must stop. A control-free window runs to the run's
  // end. Otherwise sample points that record a reading are left to the
  // event path, so the window stops short of them; with sampling off a
  // sample point only re-arms its cadence, which the window replays. A
  // capped window runs through governor cadence points and stops only
  // where the governor moves a level; an uncapped one (whose cadence steps
  // the thermal clamp may undo) and a kAnalytic one (whose bulk advance
  // rounds once per window) stop short of cadence points too.
  const ReplayKind kind = control_free() ? ReplayKind::kControlFree
                          : capped       ? ReplayKind::kCapped
                                         : ReplayKind::kUncapped;
  Seconds stop = end ? *end : std::numeric_limits<double>::infinity();
  if (kind != ReplayKind::kControlFree) {
    if (options_.record_samples) stop = std::min(stop, next_sample_);
    if (kind == ReplayKind::kUncapped || analytic) {
      stop = std::min(stop, next_governor_);
    }
  }

  // One loop, instantiated per (kind, jobs held) pair so each copy carries
  // only its own per-tick work. kAnalytic holds no jobs (its advance is one
  // bulk update per window); the event core holds one or two resident jobs'
  // accumulators in locals and advances more in place.
  const auto dispatch = [&](auto k) {
    constexpr ReplayKind K = decltype(k)::value;
    const std::size_t jobs = analytic ? 0 : cache_.jobs.size();
    switch (jobs) {
      case 0: return replay_window<K, 0>(budget, stop, events);
      case 1: return replay_window<K, 1>(budget, stop, events);
      case 2: return replay_window<K, 2>(budget, stop, events);
      default: return replay_window<K, -1>(budget, stop, events);
    }
  };
  switch (kind) {
    case ReplayKind::kControlFree:
      return dispatch(std::integral_constant<ReplayKind,
                                             ReplayKind::kControlFree>{});
    case ReplayKind::kUncapped:
      return dispatch(
          std::integral_constant<ReplayKind, ReplayKind::kUncapped>{});
    case ReplayKind::kCapped:
      return dispatch(
          std::integral_constant<ReplayKind, ReplayKind::kCapped>{});
  }
}

template <Engine::ReplayKind kKind, int kHeld>
void Engine::replay_window(std::size_t budget, Seconds stop,
                           std::vector<JobEvent>& events) {
  // Everything a replayed tick adds to lives in this function's locals —
  // the clock, record_tick's sums and up to two jobs' progress — and is
  // stored back once where the window ends. Each tick adds to them exactly
  // what the oracle's tick adds (the same `now_ += dt` chain, the same
  // per-tick += chains, the same per-job subtraction), so they leave the
  // window bit-identical, without a store and reload per tick.
  const Seconds dt = options_.dt;
  Seconds now = now_;
  Telemetry::TickSums sums = telemetry_.tick_sums();
  const Joules joules = cache_.true_power * dt;
  const bool cpu_busy = cache_.cpu_tick.busy;
  const bool gpu_busy = cache_.gpu_tick.busy;
  const bool over_cap =
      options_.power_cap && cache_.true_power > *options_.power_cap;
  constexpr std::size_t kSlots = kHeld > 0 ? kHeld : 1;
  double rem[kSlots] = {};
  double gb[kSlots] = {};
  double ref_per_tick[kSlots] = {};
  double gb_per_tick[kSlots] = {};
  for (int k = 0; k < kHeld; ++k) {
    const JobAdvance& j = cache_.jobs[k];
    rem[k] = running_[j.run_idx].phase_ref_remaining;
    gb[k] = j.stats->total_gb;
    ref_per_tick[k] = j.ref_per_tick;
    gb_per_tick[k] = j.gb_per_tick;
  }

  std::size_t ticks = 0;
  bool governor_moved = false;
  bool thermal_moved = false;
  while (ticks < budget && now + 1e-12 < stop) {
    if constexpr (kKind == ReplayKind::kControlFree) {
      // Under kNone the governor unconditionally snaps the levels to the
      // ceilings — which the constructor and set_ceilings already did — so
      // its cadence work and its meter reads are unobservable, and with
      // sampling off so are the sample-point reads. Skip the RNG draws
      // entirely and replay only the cadence bookkeeping (the exact
      // recurrences the oracle executes), so next_governor_/next_sample_
      // leave the window bit-identical. (The thermal throttle rules the
      // skip out: under kNone the governor's snap-to-ceiling must replay so
      // the thermal clamp can keep re-applying.)
      if (now + 1e-12 >= next_governor_) {
        next_governor_ = now + options_.governor_interval;
      }
      if (now + 1e-12 >= next_sample_) {
        next_sample_ = now + options_.sample_interval;
      }
    }
    if constexpr (kKind == ReplayKind::kCapped) {
      // governor_phase, inlined: the oracle's cadence step or its per-tick
      // violation test, each drawing the meter once in the same order
      // (cadence_reading and over_cap_reading value a draw only when the
      // meter's bound cannot settle the governor's thresholds). A level
      // move ends the horizon.
      const DvfsState before = dvfs_;
      if (now + 1e-12 >= next_governor_) {
        dvfs_ = governor_.step(cadence_reading(), dvfs_);
        next_governor_ = now + options_.governor_interval;
        governor_moved = levels_moved(before, dvfs_);
      } else if (const std::optional<Watts> over = over_cap_reading()) {
        dvfs_ = governor_.step(*over, dvfs_);
        governor_moved = levels_moved(before, dvfs_);
      }
      if (governor_moved) break;
    }
    if constexpr (kKind != ReplayKind::kControlFree) {
      if (thermal_) {
        now_ = now;
        // Thermal trip/release/clamp: an event, like a governor move.
        thermal_moved = thermal_phase();
        if (thermal_moved) break;
      }
    }
    if constexpr (kHeld > 0) {
      for (int k = 0; k < kHeld; ++k) {
        rem[k] -= ref_per_tick[k];
        gb[k] += gb_per_tick[k];
      }
    } else if constexpr (kHeld < 0) {
      advance_jobs_one_tick();
    }
    if constexpr (kKind != ReplayKind::kControlFree) {
      if (thermal_) thermal_advance_tick(cache_.thermal_b);
      // sample_point with sampling off, at the oracle's place in the tick.
      if (!options_.record_samples && now + 1e-12 >= next_sample_) {
        next_sample_ = now + options_.sample_interval;
      }
    }
    sums.elapsed += dt;
    sums.energy += joules;
    if (cpu_busy) sums.cpu_busy += dt;
    if (gpu_busy) sums.gpu_busy += dt;
    if (over_cap) sums.over_cap += dt;
    now += dt;
    ++ticks;
  }

  for (int k = 0; k < kHeld; ++k) {
    const JobAdvance& j = cache_.jobs[k];
    running_[j.run_idx].phase_ref_remaining = rem[k];
    j.stats->total_gb = gb[k];
  }
  now_ = now;
  telemetry_.set_tick_sums(sums);
  bank_replayed_ticks(ticks);
  if (governor_moved || thermal_moved) {
    // The horizon ends on this tick: finish it on the event path (the
    // rebuild with the new levels happens inside) and hand back to the
    // driver. After a governor move the oracle's thermal check still runs
    // on this tick, after the governor, exactly as in step_event_tick.
    if (governor_moved) (void)thermal_phase();
    complete_event_tick(/*dvfs_moved=*/true, events);
  }
}

void Engine::bank_replayed_ticks(std::size_t ticks) {
  if (ticks == 0) return;
  if (options_.mode == EngineMode::kAnalytic) {
    advance_jobs_bulk(ticks);
    counters_.analytic_ticks += ticks;
  }
  last_true_power_ = cache_.true_power;
  counters_.ticks += ticks;
  counters_.replayed_ticks += ticks;
  counters_.cache_hit_ticks += ticks;
}

void Engine::advance_jobs_one_tick() {
  for (const JobAdvance& j : cache_.jobs) {
    running_[j.run_idx].phase_ref_remaining -= j.ref_per_tick;
    j.stats->total_gb += j.gb_per_tick;
  }
}

void Engine::advance_jobs_bulk(std::size_t ticks) {
  // One fused update per job instead of `ticks` repeated subtractions. The
  // closed form rounds once where the replay rounds `ticks` times, so the
  // progress accumulators drift from the oracle by O(ticks * eps) relative
  // while every control decision (made on now_, not on these accumulators)
  // stays bit-identical. The drift can still move a phase boundary by one
  // tick when a phase ends within rounding of a tick edge (the tolerance in
  // engine.hpp's file comment).
  const double n = static_cast<double>(ticks);
  for (const JobAdvance& j : cache_.jobs) {
    running_[j.run_idx].phase_ref_remaining -= n * j.ref_per_tick;
    j.stats->total_gb += n * j.gb_per_tick;
  }
}

void Engine::run_event_mode(std::vector<JobEvent>& events,
                            const std::optional<Seconds>& end,
                            bool stop_on_event) {
  // Loop conditions replicate the tick-mode drivers: run_for ticks an idle
  // machine until `end`; run_until_event/run_until_idle stop when drained.
  while ((end ? now_ + 1e-12 < *end : !idle()) &&
         !(stop_on_event && !events.empty())) {
    step_event_tick(events);
    replay_horizon(end, events);
  }
}

std::vector<JobEvent> Engine::run_until_event() {
  std::vector<JobEvent> events;
  if (options_.mode != EngineMode::kTick) {
    run_event_mode(events, std::nullopt, /*stop_on_event=*/true);
    return events;
  }
  while (events.empty() && !idle()) {
    tick(events);
  }
  return events;
}

std::vector<JobEvent> Engine::run_for(Seconds duration) {
  CORUN_CHECK(duration >= 0.0);
  std::vector<JobEvent> events;
  const Seconds end = now_ + duration;
  if (options_.mode != EngineMode::kTick) {
    run_event_mode(events, end, /*stop_on_event=*/false);
    return events;
  }
  while (now_ + 1e-12 < end) {
    tick(events);
  }
  return events;
}

std::vector<JobEvent> Engine::run_for_until_event(Seconds duration) {
  CORUN_CHECK(duration >= 0.0);
  std::vector<JobEvent> events;
  const Seconds end = now_ + duration;
  if (options_.mode != EngineMode::kTick) {
    run_event_mode(events, end, /*stop_on_event=*/true);
    return events;
  }
  // Same clock bound as run_for (ticks an idle machine to the deadline),
  // same first-completion-tick exit as run_until_event — bit-identical to
  // the event engine's (end, stop_on_event) driver.
  while (events.empty() && now_ + 1e-12 < end) {
    tick(events);
  }
  return events;
}

void Engine::run_until_idle() {
  std::vector<JobEvent> events;
  if (options_.mode != EngineMode::kTick) {
    run_event_mode(events, std::nullopt, /*stop_on_event=*/false);
    return;
  }
  while (!idle()) {
    tick(events);
  }
}

double Engine::progress(JobId id) const {
  const JobStats& st = stats(id);
  if (st.finished) return 1.0;
  for (const RunningJob& r : running_) {
    if (r.id != id) continue;
    const DeviceProfile& prof = r.spec.profile(r.device);
    const Seconds remaining =
        prof.remaining_ref_time(r.phase_idx, r.phase_ref_remaining);
    return std::clamp(1.0 - remaining / prof.total_ref_time(), 0.0, 1.0);
  }
  CORUN_CHECK_MSG(false, "progress queried for unknown running job");
  return 0.0;
}

const JobStats& Engine::stats(JobId id) const {
  const auto it = stats_.find(id);
  CORUN_CHECK_MSG(it != stats_.end(), "unknown job id");
  return it->second;
}

std::vector<JobStats> Engine::all_stats() const {
  std::vector<JobStats> out;
  out.reserve(stats_.size());
  for (const auto& [id, st] : stats_) out.push_back(st);
  return out;
}

}  // namespace corun::sim
