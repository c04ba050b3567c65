// corun-run: plan AND execute a batch on the simulated machine, reporting
// ground truth (makespan, energy, cap statistics, per-job outcomes) and
// optionally dumping the power trace as CSV.
//
//   corun-run --batch batch.csv --profiles profiles.csv --grid grid.csv
//             [--cap 15] [--scheduler hcs+|hcs|default|random|bnb]
//             [--policy gpu|cpu] [--seed 42] [--power-trace power.csv]
#include <cstddef>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "corun/common/csv.hpp"
#include "corun/core/runtime/dynamic.hpp"
#include "corun/core/runtime/runtime.hpp"
#include "corun/core/runtime/timeline.hpp"
#include "corun/core/serve/plan_service.hpp"
#include "corun/sim/fault_injector.hpp"
#include "tool_io.hpp"

namespace {

/// Writes the --power-trace CSV shared by the static and dynamic paths.
/// With thermal simulation on, per-domain temperature and throttle-limit
/// columns are appended (the engine records both traces at the same sample
/// cadence, so they zip by index); with it off the bytes are identical to
/// what the tool emitted before the thermal model existed.
int write_power_trace(const std::string& path, bool thermal,
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
  if (!tools::write_file(path, oss.str())) return 1;
  std::printf("wrote power trace to %s (%zu samples)\n", path.c_str(),
              power.size());
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
int run_dynamic(const corun::tools::Tool& tool,
                const corun::tools::Artifacts& artifacts,
                const corun::serve::PlanRequest& request) {
  using namespace corun;
  const Flags& f = tool.flags;
  const std::string events = f.get("events", "");
  Expected<sim::FaultPlan> plan = [&]() -> Expected<sim::FaultPlan> {
    if (events.rfind("random:", 0) == 0) {
      return sim::generate_fault_plan_from_spec(events);
    }
    const auto text = tools::read_file(events);
    if (!text.has_value()) return text.error();
    return sim::fault_plan_from_csv(text.value());
  }();
  if (!plan.has_value()) return tool.usage_error(plan.error().message);
  const std::string resched = f.get("reschedule", "on");
  if (resched != "on" && resched != "off") {
    return tool.usage_error("--reschedule must be on|off");
  }

  runtime::DynamicOptions opts;
  opts.cap = request.cap;
  opts.policy = sim::parse_policy(request.policy).value();
  opts.seed = request.seed;
  opts.scheduler = request.scheduler;
  opts.reschedule = resched == "on";
  opts.plan_cache = tool.plan_cache;
  opts.backend = tool.backend;
  opts.thermal = tool.thermal;
  opts.record_trace_path = f.get("record-trace", "");
  const runtime::DynamicRuntime runner(sim::ivy_bridge(), opts);
  const runtime::DynamicReport report = runner.execute(
      artifacts.batch, artifacts.db, artifacts.grid, plan.value());
  if (!opts.record_trace_path.empty()) {
    std::fprintf(stderr, "demand trace: recorded to %s\n",
                 opts.record_trace_path.c_str());
  }

  std::printf("scheduler: %s (dynamic, reschedule %s)\n",
              request.scheduler.c_str(), resched.c_str());
  std::printf("events:    %zu planned\n", plan.value().size());
  std::printf("result:    %s", report.summary().c_str());
  print_thermal_summary(tool.thermal, report.report.thermal);
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
    return write_power_trace(f.get("power-trace", ""), tool.thermal,
                             report.report.power_trace,
                             report.report.thermal_trace);
  }
  return 0;
}

int run(const corun::tools::Tool& tool) {
  using namespace corun;
  const Flags& f = tool.flags;
  if (f.has("record-trace") && tool.backend.kind == sim::BackendKind::kReplay) {
    // The recorder would capture the replayed trace, not a new run.
    return tool.usage_error(
        "--record-trace cannot be combined with a replay backend");
  }
  const serve::PlanRequest request = tools::read_plan_request(f);
  const auto artifacts = tools::load_artifacts(f);
  if (!artifacts.has_value()) {
    return tool.usage_error(artifacts.error().message);
  }
  const workload::Batch& batch = artifacts.value().batch;

  if (f.has("events")) {
    if (f.has("plan")) {
      return tool.usage_error("--events and --plan are mutually exclusive "
                              "(dynamic mode replans online)");
    }
    return run_dynamic(tool, artifacts.value(), request);
  }

  const sim::MachineConfig config = sim::ivy_bridge();
  const model::CoRunPredictor predictor(artifacts.value().db,
                                        artifacts.value().grid, config);
  std::vector<std::string> job_names;
  for (const workload::BatchJob& job : batch.jobs()) {
    job_names.push_back(job.instance_name);
  }
  sched::Schedule schedule;
  std::string plan_source;
  if (f.has("plan")) {
    const auto plan_text = tools::read_file(f.get("plan", ""));
    if (!plan_text.has_value()) {
      return tool.usage_error(plan_text.error().message);
    }
    auto loaded = sched::schedule_from_csv(plan_text.value(), job_names);
    if (!loaded.has_value()) return tool.usage_error(loaded.error().message);
    schedule = std::move(loaded).value();
    plan_source = "plan file " + f.get("plan", "");
  } else {
    const serve::PlanService service(batch, predictor, tool.plan_cache);
    auto planned = service.plan(request);
    if (!planned.has_value()) return tools::run_error(planned.error().message);
    schedule = std::move(planned.value().schedule);
    plan_source = planned.value().scheduler_name;
  }
  runtime::RuntimeOptions rt;
  rt.cap = request.cap;
  rt.policy = sim::parse_policy(request.policy).value();
  rt.seed = request.seed;
  rt.predictor = &predictor;
  rt.backend = tool.backend;
  rt.thermal = tool.thermal;
  rt.record_trace_path = f.get("record-trace", "");
  const runtime::CoRunRuntime runner(config, rt);
  const runtime::ExecutionReport report = runner.execute(batch, schedule);
  if (!rt.record_trace_path.empty()) {
    std::fprintf(stderr, "demand trace: recorded to %s\n",
                 rt.record_trace_path.c_str());
  }

  std::printf("scheduler: %s\n", plan_source.c_str());
  std::printf("plan:      %s\n", schedule.to_string(job_names).c_str());
  std::printf("result:    %s\n", report.summary().c_str());
  print_thermal_summary(tool.thermal, report.thermal);
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
    return write_power_trace(f.get("power-trace", ""), tool.thermal,
                             report.power_trace, report.thermal_trace);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace corun::tools;
  return run_tool(
      argc, argv,
      {.synopsis =
           "corun-run --batch batch.csv --profiles profiles.csv --grid "
           "grid.csv [--cap 15] "
           "[--scheduler hcs+|hcs|thermal|default|random|bnb|exhaustive] "
           "[--plan plan.csv] [--policy gpu|cpu] [--seed 42] "
           "[--events faults.csv|random:arrivals=2,caps=1,...] "
           "[--reschedule on|off] [--power-trace power.csv] [--gantt] "
           "[--record-trace demand.csv]",
       .flags = {"batch", "profiles", "grid", "cap", "scheduler", "policy",
                 "seed", "power-trace", "plan", "record-trace", "events",
                 "reschedule"},
       .booleans = {"gantt"},
       .shared = kJobs | kBackend | kThermal | kTrace | kPlanCache},
      run);
}
