#include "corun/core/runtime/experiment.hpp"

#include <algorithm>

#include "corun/common/check.hpp"
#include "corun/common/stats.hpp"
#include "corun/core/sched/default_scheduler.hpp"
#include "corun/core/sched/hcs.hpp"
#include "corun/core/sched/lower_bound.hpp"
#include "corun/core/sched/random_scheduler.hpp"
#include "corun/core/sched/refiner.hpp"
#include "corun/profile/profiler.hpp"

namespace corun::runtime {

ModelArtifacts build_artifacts(const sim::MachineConfig& config,
                               const workload::Batch& batch,
                               const ArtifactOptions& options) {
  profile::ProfilerOptions po;
  po.seed = options.seed;
  po.backend = options.backend;
  po.cpu_levels = options.cpu_levels;
  po.gpu_levels = options.gpu_levels;
  const profile::Profiler profiler(config, po);

  ModelArtifacts artifacts;
  artifacts.db = profiler.profile_batch(batch);

  model::CharacterizationOptions co;
  co.seed = options.seed;
  co.backend = options.backend;
  const model::DegradationSpaceBuilder builder(config, co);
  artifacts.grid = options.grid_axis.empty()
                       ? builder.characterize()
                       : builder.characterize(options.grid_axis,
                                              options.grid_axis);
  return artifacts;
}

MethodResult run_method(const sim::MachineConfig& config,
                        const workload::Batch& batch,
                        const model::CoRunPredictor& predictor,
                        sched::Scheduler& scheduler,
                        const RuntimeOptions& rt_options,
                        const std::optional<Watts>& cap) {
  sched::SchedulerContext ctx;
  ctx.batch = &batch;
  ctx.predictor = &predictor;
  ctx.cap = cap;
  ctx.policy = rt_options.policy;

  const auto t0 = std::chrono::steady_clock::now();
  const sched::Schedule schedule = scheduler.plan(ctx);
  const auto t1 = std::chrono::steady_clock::now();

  RuntimeOptions wired = rt_options;
  wired.predictor = &predictor;  // model_dvfs schedules need it
  const CoRunRuntime runtime(config, wired);
  MethodResult result;
  result.name = scheduler.name();
  result.report = runtime.execute(batch, schedule);
  result.planning_seconds =
      std::chrono::duration<double>(t1 - t0).count();
  result.report.planning_seconds = result.planning_seconds;
  result.makespan = result.report.makespan;
  return result;
}

const MethodResult& ComparisonResult::method(const std::string& name) const {
  const auto it =
      std::find_if(methods.begin(), methods.end(),
                   [&](const MethodResult& m) { return m.name == name; });
  CORUN_CHECK_MSG(it != methods.end(), "no method result named " + name);
  return *it;
}

ComparisonResult run_comparison(const sim::MachineConfig& config,
                                const workload::Batch& batch,
                                const ModelArtifacts& artifacts,
                                const ComparisonOptions& options) {
  const model::CoRunPredictor predictor(artifacts.db, artifacts.grid, config);

  RuntimeOptions rt;
  rt.cap = options.cap;
  rt.policy = sim::GovernorPolicy::kGpuBiased;
  rt.seed = options.seed;
  rt.backend = options.backend;
  rt.record_power_trace = options.record_power_traces;

  ComparisonResult out;

  // Random baseline, averaged over seeds (paper: 20 runs).
  CORUN_CHECK(options.random_seeds > 0);
  Accumulator random_acc;
  for (int s = 0; s < options.random_seeds; ++s) {
    sched::RandomScheduler random(options.seed + static_cast<std::uint64_t>(s));
    const MethodResult r =
        run_method(config, batch, predictor, random, rt, options.cap);
    out.random_makespans.push_back(r.makespan);
    random_acc.add(r.makespan);
  }
  out.random_mean_makespan = random_acc.mean();

  auto add_method = [&](sched::Scheduler& scheduler, const RuntimeOptions& rto,
                        const std::string& label) {
    MethodResult r =
        run_method(config, batch, predictor, scheduler, rto, options.cap);
    r.name = label;
    r.speedup_vs_random = out.random_mean_makespan / r.makespan;
    out.methods.push_back(std::move(r));
  };

  // Default with the two frequency-adjustment policies.
  {
    sched::DefaultScheduler default_sched;
    add_method(default_sched, rt, "Default_G");
    if (options.include_cpu_biased_default) {
      RuntimeOptions rt_cpu = rt;
      rt_cpu.policy = sim::GovernorPolicy::kCpuBiased;
      sched::DefaultScheduler default_cpu;
      add_method(default_cpu, rt_cpu, "Default_C");
    }
  }

  // HCS and HCS+.
  {
    sched::HcsScheduler hcs;
    add_method(hcs, rt, "HCS");
    sched::HcsPlusScheduler hcs_plus;
    add_method(hcs_plus, rt, "HCS+");
  }

  // Lower bound (model-predicted; not executable).
  {
    sched::SchedulerContext ctx;
    ctx.batch = &batch;
    ctx.predictor = &predictor;
    ctx.cap = options.cap;
    const sched::LowerBoundResult lb = sched::compute_lower_bound(ctx);
    out.lower_bound = lb.t_low_tight;
    out.bound_speedup_vs_random =
        out.lower_bound > 0.0 ? out.random_mean_makespan / out.lower_bound : 0.0;
  }

  return out;
}

}  // namespace corun::runtime
