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
#include <string>

#include "corun/core/fleet/fleet.hpp"
#include "corun/core/runtime/experiment.hpp"
#include "tool_io.hpp"

namespace {

int run(const corun::tools::Tool& tool) {
  using namespace corun;
  const Flags& f = tool.flags;
  fleet::FleetOptions opts;
  opts.machines = f.number<std::size_t>("machines", 64);
  // Default budget: a mid-ladder 11 W per machine — enough to bind without
  // starving anyone, at any fleet size.
  opts.global_cap =
      f.number<double>("global-cap", 11.0 * static_cast<double>(opts.machines));
  opts.strategy =
      tools::flag_or_env(f, "strategy", "CORUN_FLEET_STRATEGY", "uniform");
  opts.limits.floor = f.number<double>("floor", opts.limits.floor);
  opts.limits.ceiling = f.number<double>("ceiling", opts.limits.ceiling);
  opts.limits.quantum = f.positive<double>("quantum", opts.limits.quantum);
  opts.seed = f.number<std::uint64_t>("seed", 42);
  opts.jobs_per_machine = f.number<std::size_t>("jobs-per-machine", 3);
  opts.jobs_spread = f.number<std::size_t>("jobs-spread", 0);
  opts.backend = tool.backend;
  opts.scheduler = tools::read_scheduler(f);
  opts.plan_cache = tool.plan_cache;

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
  if (!plan.has_value()) return tool.usage_error(plan.error().message);

  // Shared artifacts: one anchor instance per pool program, profiled at
  // sparse levels on the *pinned* analytic backend (see file comment).
  const auto reference =
      fleet::make_fleet_reference_batch(fleet::default_fleet_programs());
  if (!reference.has_value()) {
    return tool.usage_error(reference.error().message);
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
  if (!report.has_value()) return tool.usage_error(report.error().message);
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

  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace corun::tools;
  return run_tool(
      argc, argv,
      {.synopsis =
           "corun-fleet --machines N [--global-cap W] "
           "[--strategy uniform|demand|marginal] "
           "[--events fleet.csv|random:dropouts=1,caps=1,waves=1,horizon=60,"
           "wave_jobs=4,seed=7] [--jobs-per-machine K] [--jobs-spread S] "
           "[--floor W] [--ceiling W] [--quantum W] [--seed 42] "
           "[--scheduler hcs+|hcs|thermal|default|random|bnb|exhaustive] "
           "[--allocations] [--report-machines]",
       .flags = {"machines", "global-cap", "strategy", "events",
                 "jobs-per-machine", "jobs-spread", "floor", "ceiling",
                 "quantum", "seed", "scheduler"},
       .booleans = {"allocations", "report-machines"},
       .shared = kJobs | kBackend | kThermal | kTrace | kPlanCache},
      run);
}
