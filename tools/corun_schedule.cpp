// corun-schedule: plan a power-capped co-schedule from the offline
// artifacts and print it with its predicted makespan and the lower bound.
//
//   corun-schedule --batch batch.csv --profiles profiles.csv --grid grid.csv
//                  [--cap 15] [--scheduler hcs+|hcs|default|random|bnb]
//                  [--policy gpu|cpu] [--seed 42]
#include <cstdio>
#include <memory>

#include <sstream>

#include "corun/common/flags.hpp"
#include "corun/core/sched/lower_bound.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/hcs.hpp"
#include "corun/core/sched/plan_cache/caching_scheduler.hpp"
#include "corun/core/sched/registry.hpp"
#include "corun/core/serve/plan_service.hpp"
#include "tool_io.hpp"

namespace {
const char kUsage[] =
    "corun-schedule --batch batch.csv --profiles profiles.csv --grid grid.csv "
    "[--cap 15] [--scheduler hcs+|hcs|thermal|default|random|bnb|exhaustive] "
    "[--policy gpu|cpu] [--seed 42] [--save-plan plan.csv] [--explain] "
    "[--jobs N] [--backend tick|event|analytic|replay:PATH] "
    "[--thermal on|off] [--trace trace.json] "
    "[--plan-cache off|mem|mem:N|dir:PATH]";
}

int main(int argc, char** argv) try {
  using namespace corun;
  const auto flags = Flags::parse(
      argc, argv, {"batch", "profiles", "grid", "cap", "scheduler", "policy",
                   "seed", "save-plan", "jobs", "backend", "thermal",
                   "trace", "plan-cache"},
      {"explain"});
  if (!flags.has_value()) {
    return tools::usage_error(flags.error().message, kUsage);
  }
  const Flags& f = flags.value();
  for (const char* required : {"batch", "profiles", "grid"}) {
    if (!f.has(required)) {
      return tools::usage_error(std::string("--") + required + " is required",
                                kUsage);
    }
  }

  // Load all three artifacts.
  const auto batch_text = tools::read_file(f.get("batch", ""));
  const auto profile_text = tools::read_file(f.get("profiles", ""));
  const auto grid_text = tools::read_file(f.get("grid", ""));
  for (const auto* t : {&batch_text, &profile_text, &grid_text}) {
    if (!t->has_value()) return tools::usage_error(t->error().message, kUsage);
  }
  const auto batch = workload::batch_from_csv(batch_text.value());
  if (!batch.has_value()) return tools::usage_error(batch.error().message, kUsage);
  const auto db = profile::ProfileDB::read_csv(profile_text.value());
  if (!db.has_value()) return tools::usage_error(db.error().message, kUsage);
  const auto grid = model::DegradationGrid::read_csv(grid_text.value());
  if (!grid.has_value()) return tools::usage_error(grid.error().message, kUsage);

  const sim::MachineConfig config = sim::ivy_bridge();
  const model::CoRunPredictor predictor(db.value(), grid.value(), config);
  (void)tools::configure_jobs(f);
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

  sched::SchedulerContext ctx;
  ctx.batch = &batch.value();
  ctx.predictor = &predictor;
  if (f.has("cap")) ctx.cap = f.get_double("cap", 15.0);
  ctx.policy = f.get("policy", "gpu") == "cpu" ? sim::GovernorPolicy::kCpuBiased
                                               : sim::GovernorPolicy::kGpuBiased;

  const std::string which = f.get("scheduler", "hcs+");
  auto scheduler = sched::make_cached_scheduler(
      which, static_cast<std::uint64_t>(f.get_int("seed", 42)),
      plan_cache.value());
  if (scheduler == nullptr) {
    return tools::usage_error("unknown scheduler '" + which + "'", kUsage);
  }

  sched::Schedule schedule;
  sched::HcsTrace trace;
  if (f.has("explain")) {
    // The decision trace is an HCS feature; other planners fall back to a
    // plain plan.
    if (auto* hcs = dynamic_cast<sched::HcsScheduler*>(scheduler.get())) {
      schedule = hcs->plan_traced(ctx, &trace);
    } else {
      schedule = scheduler->plan(ctx);
    }
  } else {
    schedule = scheduler->plan(ctx);
  }
  const sched::MakespanEvaluator evaluator(ctx);
  const sched::LowerBoundResult bound = sched::compute_lower_bound(ctx);

  // Rendered through the same helper the serving daemon uses, so a daemon
  // `ok` body is byte-identical to this stdout by construction.
  std::fputs(serve::render_plan_report(scheduler->name(),
                                       schedule.to_string(ctx.job_names()),
                                       evaluator.makespan(schedule),
                                       bound.t_low_tight)
                 .c_str(),
             stdout);
  if (f.has("explain") && !trace.preference.empty()) {
    std::printf("\n-- decision trace --\n%s",
                trace.to_string(ctx.job_names()).c_str());
  }

  if (f.has("save-plan")) {
    std::ostringstream oss;
    sched::schedule_to_csv(schedule, ctx.job_names(), oss);
    if (!tools::write_file(f.get("save-plan", ""), oss.str())) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   f.get("save-plan", "").c_str());
      return 1;
    }
    std::printf("wrote plan to %s\n", f.get("save-plan", "").c_str());
  }
  tools::report_plan_cache(plan_cache.value().get());
  if (!tools::finish_trace(trace_path)) return 1;
  return 0;
} catch (const corun::FlagError& e) {
  return corun::tools::usage_error(e.what(), kUsage);
}
