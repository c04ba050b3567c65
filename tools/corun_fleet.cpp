// corun-fleet: run N simulated APUs under one datacenter-level power budget,
// dividing the global cap with a pluggable PowerStrategy and re-dividing on
// fleet events (machine dropout, global cap change, job arrival waves).
//
//   corun-fleet --machines 64 --global-cap 704 --strategy demand
//               --events random:dropouts=1,caps=1,waves=1,horizon=60,seed=7
//
// The fleet's model artifacts are built internally from the shared reference
// batch (one anchor instance per pool program), always on the analytic
// backend — so the planning inputs are bit-identical no matter which
// --backend executes the machines, and the report stays byte-identical
// across --backend analytic vs the default (the CI fleet smoke contract).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "corun/core/fleet/fleet.hpp"
#include "corun/core/runtime/experiment.hpp"
#include "tool_io.hpp"

namespace {
const char kUsage[] =
    "corun-fleet --machines N [--global-cap W] [--strategy uniform|demand|"
    "marginal] [--events fleet.csv|random:dropouts=1,caps=1,waves=1,"
    "horizon=60,wave_jobs=4,seed=7] [--jobs-per-machine K] [--jobs-spread S] "
    "[--floor W] [--ceiling W] [--quantum W] [--seed 42] "
    "[--scheduler hcs+|hcs|thermal|default|random|bnb] [--allocations] "
    "[--report-machines] [--jobs N] "
    "[--backend tick|event|analytic|replay:PATH] [--thermal on|off] "
    "[--trace trace.json] "
    "[--plan-cache off|mem|mem:N|dir:PATH]\n"
    "CORUN_FLEET_STRATEGY sets the default --strategy.";
}  // namespace

int main(int argc, char** argv) {
  using namespace corun;
  const auto flags = Flags::parse(
      argc, argv,
      {"machines", "global-cap", "strategy", "events", "jobs-per-machine",
       "jobs-spread", "floor", "ceiling", "quantum", "seed", "scheduler",
       "jobs", "backend", "thermal", "trace", "plan-cache"},
      {"allocations", "report-machines"});
  if (!flags.has_value()) {
    return tools::usage_error(flags.error().message, kUsage);
  }
  const Flags& f = flags.value();
  tools::configure_jobs(f);
  const auto backend = tools::configure_backend(f);
  if (!backend.has_value()) {
    return tools::usage_error(backend.error().message, kUsage);
  }
  const auto thermal = tools::configure_thermal(f);
  if (!thermal.has_value()) {
    return tools::usage_error(thermal.error().message, kUsage);
  }
  const std::string trace_path = tools::configure_trace(f);
  const auto plan_cache = tools::configure_plan_cache(f);
  if (!plan_cache.has_value()) {
    return tools::usage_error(plan_cache.error().message, kUsage);
  }

  fleet::FleetOptions opts;
  opts.machines = static_cast<std::size_t>(f.get_int("machines", 64));
  // Default budget: a mid-ladder 11 W per machine — enough to bind without
  // starving anyone, at any fleet size.
  opts.global_cap =
      f.get_double("global-cap", 11.0 * static_cast<double>(opts.machines));
  const char* env_strategy = std::getenv("CORUN_FLEET_STRATEGY");
  opts.strategy = f.get(
      "strategy",
      env_strategy != nullptr && env_strategy[0] != '\0' ? env_strategy
                                                         : "uniform");
  opts.limits.floor = f.get_double("floor", opts.limits.floor);
  opts.limits.ceiling = f.get_double("ceiling", opts.limits.ceiling);
  opts.limits.quantum = f.get_double("quantum", opts.limits.quantum);
  opts.seed = static_cast<std::uint64_t>(f.get_int("seed", 42));
  opts.jobs_per_machine =
      static_cast<std::size_t>(f.get_int("jobs-per-machine", 3));
  opts.jobs_spread = static_cast<std::size_t>(f.get_int("jobs-spread", 0));
  opts.backend = backend.value();
  opts.scheduler = f.get("scheduler", "hcs+");
  opts.plan_cache = plan_cache.value();

  Expected<fleet::FleetPlan> plan = [&]() -> Expected<fleet::FleetPlan> {
    const std::string events = f.get("events", "");
    if (events.empty()) return fleet::FleetPlan{};
    if (events.rfind("random:", 0) == 0) {
      return fleet::generate_fleet_plan_from_spec(events, opts.machines);
    }
    const auto text = tools::read_file(events);
    if (!text.has_value()) return text.error();
    return fleet::fleet_plan_from_csv(text.value());
  }();
  if (!plan.has_value()) {
    return tools::usage_error(plan.error().message, kUsage);
  }

  // Shared artifacts: one anchor instance per pool program, profiled at
  // sparse levels on the *pinned* analytic backend (see file comment).
  const auto reference =
      fleet::make_fleet_reference_batch(fleet::default_fleet_programs());
  if (!reference.has_value()) {
    return tools::usage_error(reference.error().message, kUsage);
  }
  const sim::MachineConfig config = sim::ivy_bridge();
  runtime::ArtifactOptions art;
  art.seed = opts.seed;
  art.backend.kind = sim::BackendKind::kAnalytic;
  art.backend.replay_path.clear();
  art.cpu_levels = {0, 5, 10, 15};
  art.gpu_levels = {0, 3, 6, 9};
  art.grid_axis = {0.0, 4.0, 8.0, 11.0};
  const runtime::ModelArtifacts artifacts =
      runtime::build_artifacts(config, reference.value(), art);

  const fleet::Fleet fleet_runner(config, opts);
  const auto report = fleet_runner.execute(plan.value(), artifacts);
  if (!report.has_value()) {
    return tools::usage_error(report.error().message, kUsage);
  }
  const fleet::FleetReport& r = report.value();

  std::printf("strategy: %s (events: %zu planned)\n", opts.strategy.c_str(),
              plan.value().size());
  std::printf("%s", r.summary().c_str());

  if (f.has("allocations")) {
    for (const fleet::AllocationRecord& a : r.allocations) {
      double lo = 0.0;
      double hi = 0.0;
      double sum = 0.0;
      bool any = false;
      for (std::size_t m = 0; m < a.caps.size(); ++m) {
        if (a.caps[m] <= 0.0) continue;  // dead machines hold 0 W
        lo = any ? std::min(lo, a.caps[m]) : a.caps[m];
        hi = any ? std::max(hi, a.caps[m]) : a.caps[m];
        sum += a.caps[m];
        any = true;
      }
      const double mean = a.live == 0 ? 0.0 : sum / static_cast<double>(a.live);
      std::printf("  alloc t=%.4g live=%zu cap/machine min=%.4g mean=%.4g "
                  "max=%.4g total=%.4g\n",
                  a.time, a.live, lo, mean, hi, sum);
    }
  }
  if (f.has("report-machines")) {
    std::printf("%-8s %-8s %6s %6s %6s %10s\n", "machine", "state", "jobs",
                "done", "lost", "makespan");
    for (const fleet::MachineOutcome& m : r.machines) {
      std::printf("%-8zu %-8s %6zu %6zu %6zu %10.4g\n", m.index,
                  m.dropped ? "dropped" : "live", m.assigned_jobs,
                  m.report.report.jobs.size(), m.report.cancelled.size(),
                  m.report.report.makespan);
    }
  }

  tools::report_plan_cache(opts.plan_cache.get());
  if (!tools::finish_trace(trace_path)) return 1;
  return 0;
}
