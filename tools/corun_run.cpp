// corun-run: plan AND execute a batch on the simulated machine, reporting
// ground truth (makespan, energy, cap statistics, per-job outcomes) and
// optionally dumping the power trace as CSV.
//
//   corun-run --batch batch.csv --profiles profiles.csv --grid grid.csv
//             [--cap 15] [--scheduler hcs+|hcs|default|random|bnb]
//             [--policy gpu|cpu] [--seed 42] [--power-trace power.csv]
#include <cstddef>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "corun/common/csv.hpp"
#include "corun/common/flags.hpp"
#include "corun/core/runtime/dynamic.hpp"
#include "corun/core/runtime/runtime.hpp"
#include "corun/core/runtime/timeline.hpp"
#include "corun/core/sched/plan_cache/caching_scheduler.hpp"
#include "corun/core/sched/registry.hpp"
#include "corun/core/sched/scheduler.hpp"
#include "corun/sim/fault_injector.hpp"
#include "tool_io.hpp"

namespace {
const char kUsage[] =
    "corun-run --batch batch.csv --profiles profiles.csv --grid grid.csv "
    "[--cap 15] [--scheduler hcs+|hcs|thermal|default|random|bnb|exhaustive] "
    "[--plan plan.csv] [--policy gpu|cpu] [--seed 42] "
    "[--events faults.csv|random:arrivals=2,caps=1,...] [--reschedule on|off] "
    "[--power-trace power.csv] [--gantt] [--jobs N] "
    "[--backend tick|event|analytic|replay:PATH] [--thermal on|off] "
    "[--record-trace demand.csv] "
    "[--trace trace.json] [--plan-cache off|mem|mem:N|dir:PATH]";

/// Writes the --power-trace CSV shared by the static and dynamic paths.
/// With thermal simulation on, per-domain temperature and throttle-limit
/// columns are appended (the engine records both traces at the same sample
/// cadence, so they zip by index); with it off the bytes are identical to
/// what the tool emitted before the thermal model existed.
int write_power_trace(const corun::Flags& f, bool thermal,
                      const std::vector<corun::sim::PowerSample>& power,
                      const std::vector<corun::sim::ThermalSample>& temps) {
  using namespace corun;
  std::ostringstream oss;
  CsvWriter writer(oss);
  std::vector<std::string> header = {"t_s",       "measured_w", "true_w",
                                     "cpu_level", "gpu_level",  "cpu_bw",
                                     "gpu_bw"};
  if (thermal) {
    header.insert(header.end(),
                  {"cpu_c", "gpu_c", "package_c", "cpu_limit", "gpu_limit"});
  }
  writer.write_row(header);
  for (std::size_t i = 0; i < power.size(); ++i) {
    const sim::PowerSample& s = power[i];
    std::vector<std::string> row = {
        std::to_string(s.t),          std::to_string(s.measured),
        std::to_string(s.true_power), std::to_string(s.cpu_level),
        std::to_string(s.gpu_level),  std::to_string(s.cpu_bw),
        std::to_string(s.gpu_bw)};
    if (thermal && i < temps.size()) {
      const sim::ThermalSample& t = temps[i];
      row.push_back(std::to_string(t.cpu_c));
      row.push_back(std::to_string(t.gpu_c));
      row.push_back(std::to_string(t.package_c));
      row.push_back(std::to_string(t.cpu_limit));
      row.push_back(std::to_string(t.gpu_limit));
    }
    writer.write_row(row);
  }
  if (!tools::write_file(f.get("power-trace", ""), oss.str())) {
    std::fprintf(stderr, "error: cannot write '%s'\n",
                 f.get("power-trace", "").c_str());
    return 1;
  }
  std::printf("wrote power trace to %s (%zu samples)\n",
              f.get("power-trace", "").c_str(), power.size());
  return 0;
}

/// One-line thermal summary, printed only when the model is engaged so the
/// default stdout stays byte-identical.
void print_thermal_summary(bool thermal, const corun::sim::ThermalStats& st) {
  if (!thermal) return;
  std::printf(
      "thermal:   peak cpu %.1fC gpu %.1fC pkg %.1fC | trips %llu releases"
      " %llu throttled %.2fs\n",
      st.peak_cpu_c, st.peak_gpu_c, st.peak_package_c,
      static_cast<unsigned long long>(st.trips),
      static_cast<unsigned long long>(st.releases), st.throttled_time);
}

/// Dynamic-mode execution: drives the batch through the fault stream with
/// the online rescheduler instead of the one-shot static runtime.
int run_dynamic_mode(const corun::Flags& f, const corun::workload::Batch& batch,
                     const corun::profile::ProfileDB& db,
                     const corun::model::DegradationGrid& grid,
                     const corun::sim::MachineConfig& config,
                     const corun::sim::GovernorPolicy policy,
                     const std::string& scheduler, std::uint64_t seed,
                     const std::string& trace_path,
                     const corun::sim::BackendSpec& backend, bool thermal,
                     std::shared_ptr<corun::sched::PlanCache> plan_cache) {
  using namespace corun;
  const std::string events = f.get("events", "");
  Expected<sim::FaultPlan> plan = [&]() -> Expected<sim::FaultPlan> {
    if (events.rfind("random:", 0) == 0) {
      return sim::generate_fault_plan_from_spec(events);
    }
    const auto text = tools::read_file(events);
    if (!text.has_value()) return text.error();
    return sim::fault_plan_from_csv(text.value());
  }();
  if (!plan.has_value()) {
    return tools::usage_error(plan.error().message, kUsage);
  }
  const std::string resched = f.get("reschedule", "on");
  if (resched != "on" && resched != "off") {
    return tools::usage_error("--reschedule must be on|off", kUsage);
  }

  runtime::DynamicOptions opts;
  if (f.has("cap")) opts.cap = f.get_double("cap", 15.0);
  opts.policy = policy;
  opts.seed = seed;
  opts.scheduler = scheduler;
  opts.reschedule = resched == "on";
  opts.plan_cache = plan_cache;
  opts.backend = backend;
  opts.thermal = thermal;
  opts.record_trace_path = f.get("record-trace", "");
  const runtime::DynamicRuntime runner(config, opts);
  const runtime::DynamicReport report = runner.execute(batch, db, grid, plan.value());
  if (!opts.record_trace_path.empty()) {
    std::fprintf(stderr, "demand trace: recorded to %s\n",
                 opts.record_trace_path.c_str());
  }

  std::printf("scheduler: %s (dynamic, reschedule %s)\n", scheduler.c_str(),
              resched.c_str());
  std::printf("events:    %zu planned\n", plan.value().size());
  std::printf("result:    %s", report.summary().c_str());
  print_thermal_summary(thermal, report.report.thermal);
  for (const runtime::AppliedFault& a : report.log) {
    std::printf("  [%8.2fs] %-8s %s\n", a.applied_at,
                sim::fault_kind_name(a.event.kind), a.detail.c_str());
  }
  std::printf("%-18s %-4s %10s %10s %10s\n", "job", "dev", "start", "finish",
              "runtime");
  for (const runtime::JobOutcome& j : report.report.jobs) {
    std::printf("%-18s %-4s %10.2f %10.2f %10.2f\n", j.name.c_str(),
                sim::device_name(j.device), j.start, j.finish, j.runtime());
  }
  if (f.has("power-trace")) {
    const int rc = write_power_trace(f, thermal, report.report.power_trace,
                                     report.report.thermal_trace);
    if (rc != 0) return rc;
  }
  tools::report_plan_cache(plan_cache.get());
  if (!tools::finish_trace(trace_path)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace corun;
  const auto flags = Flags::parse(argc, argv,
                                  {"batch", "profiles", "grid", "cap",
                                   "scheduler", "policy", "seed",
                                   "power-trace", "plan", "jobs", "backend",
                                   "thermal", "record-trace", "trace",
                                   "events", "reschedule", "plan-cache"},
                                  {"gantt"});
  if (!flags.has_value()) {
    return tools::usage_error(flags.error().message, kUsage);
  }
  const Flags& f = flags.value();
  tools::configure_jobs(f);
  const auto backend = tools::configure_backend(f);
  if (!backend.has_value()) {
    return tools::usage_error(backend.error().message, kUsage);
  }
  if (f.has("record-trace") &&
      backend.value().kind == sim::BackendKind::kReplay) {
    // The recorder would capture the replayed trace, not a new run.
    return tools::usage_error(
        "--record-trace cannot be combined with a replay backend", kUsage);
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
  for (const char* required : {"batch", "profiles", "grid"}) {
    if (!f.has(required)) {
      return tools::usage_error(std::string("--") + required + " is required",
                                kUsage);
    }
  }

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

  sched::SchedulerContext ctx;
  ctx.batch = &batch.value();
  ctx.predictor = &predictor;
  if (f.has("cap")) ctx.cap = f.get_double("cap", 15.0);
  const sim::GovernorPolicy policy = f.get("policy", "gpu") == "cpu"
                                         ? sim::GovernorPolicy::kCpuBiased
                                         : sim::GovernorPolicy::kGpuBiased;
  ctx.policy = policy;

  const std::string which = f.get("scheduler", "hcs+");
  const auto seed = static_cast<std::uint64_t>(f.get_int("seed", 42));

  if (f.has("events")) {
    if (f.has("plan")) {
      return tools::usage_error("--events and --plan are mutually exclusive "
                                "(dynamic mode replans online)",
                                kUsage);
    }
    if (sched::make_scheduler(which, seed) == nullptr) {
      return tools::usage_error("unknown scheduler '" + which + "'", kUsage);
    }
    return run_dynamic_mode(f, batch.value(), db.value(), grid.value(),
                            config, policy, which, seed, trace_path,
                            backend.value(), thermal.value(),
                            plan_cache.value());
  }

  sched::Schedule schedule;
  std::string plan_source;
  if (f.has("plan")) {
    const auto plan_text = tools::read_file(f.get("plan", ""));
    if (!plan_text.has_value()) {
      return tools::usage_error(plan_text.error().message, kUsage);
    }
    auto loaded = sched::schedule_from_csv(plan_text.value(), ctx.job_names());
    if (!loaded.has_value()) {
      return tools::usage_error(loaded.error().message, kUsage);
    }
    schedule = std::move(loaded).value();
    plan_source = "plan file " + f.get("plan", "");
  } else {
    auto scheduler = sched::make_cached_scheduler(which, seed,
                                                  plan_cache.value());
    if (scheduler == nullptr) {
      return tools::usage_error("unknown scheduler '" + which + "'", kUsage);
    }
    schedule = scheduler->plan(ctx);
    plan_source = scheduler->name();
  }
  runtime::RuntimeOptions rt;
  rt.cap = ctx.cap;
  rt.policy = policy;
  rt.seed = seed;
  rt.predictor = &predictor;
  rt.backend = backend.value();
  rt.thermal = thermal.value();
  rt.record_trace_path = f.get("record-trace", "");
  const runtime::CoRunRuntime runner(config, rt);
  const runtime::ExecutionReport report =
      runner.execute(batch.value(), schedule);
  if (!rt.record_trace_path.empty()) {
    std::fprintf(stderr, "demand trace: recorded to %s\n",
                 rt.record_trace_path.c_str());
  }

  std::printf("scheduler: %s\n", plan_source.c_str());
  std::printf("plan:      %s\n", schedule.to_string(ctx.job_names()).c_str());
  std::printf("result:    %s\n", report.summary().c_str());
  print_thermal_summary(thermal.value(), report.thermal);
  std::printf("%-18s %-4s %10s %10s %10s\n", "job", "dev", "start", "finish",
              "runtime");
  for (const runtime::JobOutcome& j : report.jobs) {
    std::printf("%-18s %-4s %10.2f %10.2f %10.2f\n", j.name.c_str(),
                sim::device_name(j.device), j.start, j.finish, j.runtime());
  }

  if (f.has("gantt")) {
    const runtime::UtilizationStats util = runtime::utilization(report);
    std::printf("\n%s", runtime::render_gantt(report).c_str());
    std::printf("utilization: CPU %.0f%%  GPU %.0f%%\n",
                util.cpu_utilization() * 100.0,
                util.gpu_utilization() * 100.0);
  }

  if (f.has("power-trace")) {
    const int rc = write_power_trace(f, thermal.value(), report.power_trace,
                                     report.thermal_trace);
    if (rc != 0) return rc;
  }
  tools::report_plan_cache(plan_cache.value().get());
  if (!tools::finish_trace(trace_path)) return 1;
  return 0;
}
