#include "corun/core/fleet/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "corun/common/csv.hpp"
#include "corun/common/rng.hpp"
#include "corun/common/task_pool.hpp"
#include "corun/workload/rodinia.hpp"

namespace corun::fleet {

namespace {

constexpr std::string_view kCsvColumns[] = {"time", "kind", "machine",
                                            "cap",  "jobs", "seed"};
constexpr std::string_view kSpecKeys[] = {
    "dropouts", "caps",    "waves",    "horizon",
    "wave_jobs", "cap_low", "cap_high", "seed"};

/// Fleet power equality across backends holds to ~1e-9 per machine; the
/// comparison slack absorbs the summed drift so a violation count can never
/// flip between the event and analytic backends.
constexpr Watts kCapSlack = 1e-6;

}  // namespace

// ---- fleet event streams --------------------------------------------------

const char* fleet_event_kind_name(FleetEventKind k) noexcept {
  switch (k) {
    case FleetEventKind::kDropout: return "dropout";
    case FleetEventKind::kGlobalCap: return "cap";
    case FleetEventKind::kWave: return "wave";
  }
  return "?";
}

Expected<FleetEventKind> parse_fleet_event_kind(const std::string& text) {
  if (text == "dropout") return FleetEventKind::kDropout;
  if (text == "cap") return FleetEventKind::kGlobalCap;
  if (text == "wave") return FleetEventKind::kWave;
  return fail("unknown fleet event kind '" + text +
                  "' (expected dropout|cap|wave)",
              ErrorCategory::kParse);
}

void FleetPlan::sort() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FleetEvent& a, const FleetEvent& b) {
                     return a.time < b.time;
                   });
}

Expected<bool> FleetPlan::validate() const {
  Seconds prev = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FleetEvent& e = events[i];
    const std::string where = "fleet event " + std::to_string(i) + " (" +
                              fleet_event_kind_name(e.kind) + ")";
    if (!(e.time >= 0.0)) {
      return fail(where + ": time must be >= 0",
                  ErrorCategory::kInvalidArgument);
    }
    if (e.time < prev) {
      return fail(where + ": stream is not time-sorted (call sort())",
                  ErrorCategory::kInvalidArgument);
    }
    prev = e.time;
    switch (e.kind) {
      case FleetEventKind::kDropout:
        if (e.machine < -1) {
          return fail(where + ": machine index < -1",
                      ErrorCategory::kInvalidArgument);
        }
        break;
      case FleetEventKind::kGlobalCap:
        if (e.cap && !(*e.cap > 0.0)) {
          return fail(where + ": non-positive cap",
                      ErrorCategory::kInvalidArgument);
        }
        break;
      case FleetEventKind::kWave:
        if (e.jobs == 0) {
          return fail(where + ": wave without jobs",
                      ErrorCategory::kInvalidArgument);
        }
        break;
    }
  }
  return true;
}

void fleet_plan_to_csv(const FleetPlan& plan, std::ostream& out) {
  CsvWriter writer(out);
  writer.write_row(kCsvColumns);
  for (const FleetEvent& e : plan.events) {
    writer.write_row({csv_double(e.time), fleet_event_kind_name(e.kind),
                      std::to_string(e.machine),
                      e.cap ? csv_double(*e.cap) : "-",
                      std::to_string(e.jobs), std::to_string(e.seed)});
  }
}

Expected<FleetPlan> fleet_plan_from_csv(const std::string& text) {
  auto rows = read_csv_table(text, kCsvColumns, "fleet plan CSV");
  if (!rows.has_value()) return rows.error();
  FleetPlan plan;
  for (Record& row : std::move(rows).value()) {
    FleetEvent e;
    const auto kind = parse_fleet_event_kind(row["kind"]);
    if (!kind.has_value()) return kind.error();
    e.kind = kind.value();
    // "-" in any optional column keeps the field's default, so
    // hand-authored plans only fill the columns their kind uses.
    row.read("time", e.time);
    row.read_or_keep("machine", e.machine);
    if (row["cap"] != "-") row.read("cap", e.cap.emplace());
    row.read_or_keep("jobs", e.jobs);
    row.read_or_keep("seed", e.seed);
    if (row.error()) return *row.error();
    plan.events.push_back(std::move(e));
  }
  const auto valid = plan.validate();
  if (!valid.has_value()) return valid.error();
  return plan;
}

Expected<FleetPlan> generate_fleet_plan_from_spec(const std::string& spec,
                                                  std::size_t machines) {
  auto parsed = read_spec(spec, "random:", kSpecKeys, "fleet event spec");
  if (!parsed.has_value()) return parsed.error();
  Record items = std::move(parsed).value();
  int dropouts = 1;
  int caps = 1;
  int waves = 1;
  Seconds horizon = 60.0;
  std::size_t wave_jobs = 4;
  Watts cap_low = 10.0;  // per machine; multiplied by the fleet size
  Watts cap_high = 14.0;
  std::uint64_t seed = 42;
  items.read_or_keep("dropouts", dropouts);
  items.read_or_keep("caps", caps);
  items.read_or_keep("waves", waves);
  items.read_or_keep("horizon", horizon);
  items.read_or_keep("wave_jobs", wave_jobs);
  items.read_or_keep("cap_low", cap_low);
  items.read_or_keep("cap_high", cap_high);
  items.read_or_keep("seed", seed);
  if (items.error()) return *items.error();
  const auto ranges = sim::check_generator_ranges({dropouts, caps, waves},
                                                  horizon, cap_low, cap_high);
  if (!ranges.has_value()) {
    return fail("fleet event spec: " + ranges.error().message,
                ErrorCategory::kParse);
  }

  // Each kind draws from its own forked stream (the fault-injector
  // discipline): adding one more wave never shifts the dropout times of an
  // otherwise-equal plan.
  FleetPlan plan;
  const Rng root(seed);
  const Seconds h = std::max(horizon, 1e-3);
  {
    Rng rng = root.fork("fleet-dropouts");
    for (int i = 0; i < dropouts; ++i) {
      FleetEvent e;
      e.kind = FleetEventKind::kDropout;
      e.time = rng.uniform(0.0, h);
      e.machine = -1;  // resolved among live machines at translate time
      e.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
      plan.events.push_back(std::move(e));
    }
  }
  {
    Rng rng = root.fork("fleet-caps");
    for (int i = 0; i < caps; ++i) {
      FleetEvent e;
      e.kind = FleetEventKind::kGlobalCap;
      e.time = rng.uniform(0.0, h);
      e.cap = rng.uniform(cap_low, cap_high) *
              static_cast<double>(std::max<std::size_t>(machines, 1));
      plan.events.push_back(std::move(e));
    }
  }
  {
    Rng rng = root.fork("fleet-waves");
    for (int i = 0; i < waves; ++i) {
      FleetEvent e;
      e.kind = FleetEventKind::kWave;
      e.time = rng.uniform(0.0, h);
      e.jobs = wave_jobs;
      e.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
      plan.events.push_back(std::move(e));
    }
  }
  plan.sort();
  const auto valid = plan.validate();
  if (!valid.has_value()) return valid.error();
  return plan;
}

// ---- fleet configuration --------------------------------------------------

const std::vector<std::string>& default_fleet_programs() {
  static const std::vector<std::string> kPool{"srad",     "lud", "hotspot",
                                             "backprop", "cfd", "dwt2d"};
  return kPool;
}

Expected<workload::Batch> make_fleet_reference_batch(
    const std::vector<std::string>& programs) {
  workload::Batch batch;
  for (const std::string& name : programs) {
    auto desc = workload::rodinia_by_name(name);
    if (!desc) {
      return fail("unknown fleet program '" + name + "'",
                  ErrorCategory::kNotFound);
    }
    // Anchor instances: named exactly like the program, at scale 1.0, so
    // every machine-local instance resolves through cross-run scaling.
    desc->input_scale = 1.0;
    batch.add(*desc, hash64(name), name);
  }
  return batch;
}

// ---- the fleet ------------------------------------------------------------

Fleet::Fleet(sim::MachineConfig config, FleetOptions options)
    : config_(std::move(config)), options_(std::move(options)) {}

namespace {

/// Translate-time state of one machine.
struct MachineState {
  bool alive = true;
  double demand = 0.0;        ///< assigned-work estimate (seconds)
  std::size_t assigned = 0;   ///< initial jobs + wave arrivals
  Watts last_cap = 0.0;
  workload::Batch batch;
  std::vector<sim::FaultEvent> events;
};

/// Predicted best solo seconds of one job: min over devices of the raw
/// device base time, input-scaled — the same max-frequency estimate for
/// initial jobs and wave arrivals.
double solo_estimate(const workload::KernelDescriptor& desc, double scale) {
  return std::min(desc.cpu.base_time, desc.gpu.base_time) * scale;
}

std::vector<std::size_t> live_indices(const std::vector<MachineState>& ms) {
  std::vector<std::size_t> out;
  for (std::size_t m = 0; m < ms.size(); ++m) {
    if (ms[m].alive) out.push_back(m);
  }
  return out;
}

}  // namespace

Expected<FleetReport> Fleet::execute(
    const FleetPlan& plan, const runtime::ModelArtifacts& artifacts) const {
  const std::size_t n = options_.machines;
  if (n == 0) {
    return fail("fleet needs at least one machine",
                ErrorCategory::kInvalidArgument);
  }
  if (options_.jobs_per_machine == 0) {
    return fail("fleet machines need at least one initial job",
                ErrorCategory::kInvalidArgument);
  }
  if (options_.limits.floor <= 0.0 ||
      options_.limits.ceiling < options_.limits.floor) {
    return fail("fleet power limits are inverted",
                ErrorCategory::kInvalidArgument);
  }
  if (options_.min_input_scale <= 0.0 ||
      options_.max_input_scale < options_.min_input_scale) {
    return fail("fleet input-scale range is inverted",
                ErrorCategory::kInvalidArgument);
  }
  const auto plan_valid = plan.validate();
  if (!plan_valid.has_value()) return plan_valid.error();
  auto strategy_or = make_power_strategy(options_.strategy);
  if (!strategy_or.has_value()) return strategy_or.error();
  const PowerStrategy& strategy = *strategy_or.value();

  const std::vector<std::string>& pool =
      options_.programs.empty() ? default_fleet_programs() : options_.programs;
  std::vector<workload::KernelDescriptor> pool_descs;
  pool_descs.reserve(pool.size());
  for (const std::string& name : pool) {
    auto desc = workload::rodinia_by_name(name);
    if (!desc) {
      return fail("unknown fleet program '" + name + "'",
                  ErrorCategory::kNotFound);
    }
    pool_descs.push_back(*desc);
  }

  // ---- initial assignment (deterministic in options_.seed alone) ---------
  std::vector<MachineState> ms(n);
  for (std::size_t m = 0; m < n; ++m) {
    Rng rng(common::task_seed(options_.seed, m));
    std::size_t count = options_.jobs_per_machine;
    if (options_.jobs_spread > 0) {
      count += static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(options_.jobs_spread)));
    }
    for (std::size_t j = 0; j < count; ++j) {
      workload::KernelDescriptor desc = pool_descs[(m + j) % pool.size()];
      desc.input_scale =
          rng.uniform(options_.min_input_scale, options_.max_input_scale);
      const auto seed =
          static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
      ms[m].batch.add(desc, seed, desc.name + "@" + std::to_string(j));
      ms[m].demand += solo_estimate(desc, desc.input_scale);
      ++ms[m].assigned;
    }
  }

  const SpeedCurve curve = SpeedCurve::from_machine(config_);
  FleetReport out;
  std::optional<Watts> cur_cap = options_.global_cap;

  // Re-divides the budget at time t: records the allocation and appends a
  // kCapSet to every live machine whose cap actually moved (t=0 caps are
  // installed as the runtimes' initial caps instead).
  auto divide_now = [&](Seconds t) -> Expected<bool> {
    std::vector<MachineDemand> demands(n);
    for (std::size_t m = 0; m < n; ++m) {
      demands[m] = {ms[m].alive, ms[m].demand, ms[m].assigned};
    }
    const std::vector<std::size_t> live = live_indices(ms);
    std::vector<Watts> caps(n, 0.0);
    if (!live.empty()) {
      if (cur_cap) {
        if (*cur_cap <
            options_.limits.floor * static_cast<double>(live.size())) {
          return fail("global cap " + csv_double(*cur_cap) + " at t=" +
                          csv_double(t) + " cannot fund " +
                          std::to_string(live.size()) + " machine floors of " +
                          csv_double(options_.limits.floor) + " W",
                      ErrorCategory::kInvalidArgument);
        }
        caps = strategy.divide(*cur_cap, demands, options_.limits, curve);
      } else {
        for (const std::size_t m : live) caps[m] = options_.limits.ceiling;
      }
    }
    for (const std::size_t m : live) {
      if (std::abs(caps[m] - ms[m].last_cap) <= 1e-9) continue;
      if (t > 0.0) {
        sim::FaultEvent cap_ev;
        cap_ev.time = t;
        cap_ev.kind = sim::FaultKind::kCapSet;
        cap_ev.cap = caps[m];
        ms[m].events.push_back(std::move(cap_ev));
      }
      ms[m].last_cap = caps[m];
    }
    AllocationRecord rec;
    rec.time = t;
    rec.global_cap = cur_cap;
    rec.live = live.size();
    rec.caps = std::move(caps);
    out.allocations.push_back(std::move(rec));
    return true;
  };

  const auto first = divide_now(0.0);
  if (!first.has_value()) return first.error();

  // ---- translate fleet events into per-machine fault events --------------
  for (const FleetEvent& e : plan.events) {
    bool redivide = true;
    switch (e.kind) {
      case FleetEventKind::kDropout: {
        const std::vector<std::size_t> live = live_indices(ms);
        if (live.empty()) {
          redivide = false;
          break;  // nothing left to drop
        }
        std::size_t victim;
        if (e.machine < 0) {
          Rng rng(e.seed);
          victim = live[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(live.size()) - 1))];
        } else {
          victim = static_cast<std::size_t>(e.machine);
          if (victim >= n || !ms[victim].alive) {
            return fail("dropout target " + std::to_string(e.machine) +
                            " is out of range or already dead",
                        ErrorCategory::kInvalidArgument);
          }
        }
        // Drain the machine: one seeded kCancel per job it was ever
        // assigned. Cancels that find every job already finished resolve to
        // "no eligible job" in the machine's log, harmlessly.
        for (std::size_t k = 0; k < ms[victim].assigned; ++k) {
          sim::FaultEvent cancel;
          cancel.time = e.time;
          cancel.kind = sim::FaultKind::kCancel;
          cancel.target = -1;
          cancel.seed = common::task_seed(e.seed, k);
          ms[victim].events.push_back(std::move(cancel));
        }
        ms[victim].alive = false;
        ms[victim].demand = 0.0;
        ++out.dropouts;
        break;
      }
      case FleetEventKind::kGlobalCap: {
        cur_cap = e.cap;
        ++out.cap_changes;
        break;
      }
      case FleetEventKind::kWave: {
        const std::vector<std::size_t> live = live_indices(ms);
        if (live.empty()) {
          redivide = false;
          break;  // a wave into a dead fleet is dropped on the floor
        }
        Rng rng(e.seed);
        const auto start = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        for (std::size_t j = 0; j < e.jobs; ++j) {
          const std::size_t m = live[(start + j) % live.size()];
          const auto pick = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(pool_descs.size()) - 1));
          const double scale = rng.uniform(options_.min_input_scale,
                                           options_.max_input_scale);
          sim::FaultEvent arrival;
          arrival.time = e.time;
          arrival.kind = sim::FaultKind::kArrival;
          arrival.program = pool_descs[pick].name;
          arrival.input_scale = scale;
          arrival.seed =
              static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
          ms[m].events.push_back(std::move(arrival));
          ms[m].demand += solo_estimate(pool_descs[pick], scale);
          ++ms[m].assigned;
        }
        ++out.waves;
        break;
      }
    }
    if (!redivide) continue;
    const auto ok = divide_now(e.time);
    if (!ok.has_value()) return ok.error();
    ++out.redivisions;
  }

  // ---- execute: N independent machines on the shared TaskPool ------------
  const std::vector<Watts>& initial_caps = out.allocations.front().caps;
  common::TaskPool& pool_exec = common::TaskPool::shared();
  std::vector<runtime::DynamicReport> reports =
      pool_exec.parallel_map<runtime::DynamicReport>(n, [&](std::size_t m) {
        runtime::DynamicOptions d;
        d.cap = initial_caps[m];
        d.seed = common::task_seed(options_.seed, m);
        d.backend = options_.backend;
        d.sample_interval = options_.sample_interval;
        d.record_power_trace = true;
        d.scheduler = options_.scheduler;
        d.plan_cache = options_.plan_cache;
        const runtime::DynamicRuntime rt(config_, d);
        sim::FaultPlan fp;
        fp.events = ms[m].events;
        fp.sort();
        return rt.execute(ms[m].batch, artifacts.db, artifacts.grid, fp);
      });

  // ---- deterministic merge (index order) ---------------------------------
  out.machines.reserve(n);
  for (std::size_t m = 0; m < n; ++m) {
    MachineOutcome mo;
    mo.index = m;
    mo.dropped = !ms[m].alive;
    mo.assigned_jobs = ms[m].assigned;
    mo.initial_cap = initial_caps[m];
    mo.report = std::move(reports[m]);

    out.fleet_makespan = std::max(out.fleet_makespan, mo.report.report.makespan);
    out.total_jobs += mo.assigned_jobs;
    out.finished_jobs += mo.report.report.jobs.size();
    out.lost_jobs += mo.report.cancelled.size();
    out.replans += mo.report.replans;
    out.machines.push_back(std::move(mo));
  }

  // ---- global-cap accounting over the aligned sample grid ----------------
  std::vector<Watts> sums;
  for (const MachineOutcome& mo : out.machines) {
    for (const sim::PowerSample& s : mo.report.report.power_trace) {
      const auto k = static_cast<std::size_t>(
          std::lround(s.t / options_.sample_interval));
      if (k >= sums.size()) sums.resize(k + 1, 0.0);
      sums[k] += s.true_power;
    }
  }
  // The cap in force at a timestamp: the latest of the initial cap and the
  // kGlobalCap events at or before it.
  std::vector<std::pair<Seconds, std::optional<Watts>>> cap_timeline;
  cap_timeline.emplace_back(0.0, options_.global_cap);
  for (const FleetEvent& e : plan.events) {
    if (e.kind == FleetEventKind::kGlobalCap) {
      cap_timeline.emplace_back(e.time, e.cap);
    }
  }
  for (std::size_t k = 0; k < sums.size(); ++k) {
    const Seconds t = static_cast<double>(k) * options_.sample_interval;
    std::optional<Watts> cap = cap_timeline.front().second;
    for (const auto& [time, c] : cap_timeline) {
      if (time <= t + 1e-9) cap = c;
    }
    ++out.power_samples;
    if (!cap || sums[k] <= *cap + kCapSlack) continue;
    ++out.over_cap;
    out.worst_overshoot = std::max(out.worst_overshoot, sums[k] - *cap);
    bool transient = false;
    for (const FleetEvent& e : plan.events) {
      if (t >= e.time - 1e-9 &&
          t < e.time + options_.transition_window - 1e-9) {
        transient = true;
        break;
      }
    }
    if (!transient) ++out.steady_over_cap;
  }

  return out;
}

std::string FleetReport::summary() const {
  // Limited precision on every float keeps the event and analytic backends
  // (equal to ~1e-9) rendering byte-identically — the CI smoke contract.
  std::ostringstream oss;
  oss.precision(4);
  const std::size_t live = allocations.empty()
                               ? machines.size()
                               : allocations.back().live;
  oss << "fleet: machines=" << machines.size() << " live=" << live << "\n";
  oss << "budget: global_cap=";
  if (allocations.empty() || !allocations.front().global_cap) {
    oss << "-";
  } else {
    oss << *allocations.front().global_cap;
  }
  oss << " redivisions=" << redivisions << "\n";
  oss << "events: dropouts=" << dropouts << " cap_changes=" << cap_changes
      << " waves=" << waves << "\n";
  oss << "jobs: total=" << total_jobs << " finished=" << finished_jobs
      << " lost=" << lost_jobs << "\n";
  oss << "makespan: " << fleet_makespan << "\n";
  oss << "power: samples=" << power_samples << " over_cap=" << over_cap
      << " steady_over_cap=" << steady_over_cap
      << " worst_overshoot=" << worst_overshoot << "\n";
  // Plan-cache counters are deliberately absent: like DynamicReport, the
  // summary stays byte-identical with the cache on or off (the tool reports
  // cache activity on stderr instead).
  oss << "plans: replans=" << replans << "\n";
  return oss.str();
}

}  // namespace corun::fleet
