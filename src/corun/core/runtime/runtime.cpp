#include "corun/core/runtime/runtime.hpp"

#include <deque>
#include <map>
#include <memory>
#include <utility>

#include "corun/common/check.hpp"

namespace corun::runtime {
namespace {

/// Tracks which batch job runs on which device and at which scheduled level.
struct DeviceCursor {
  std::deque<sched::ScheduledJob> pending;
  std::optional<std::size_t> current;        ///< batch index
  sim::FreqLevel current_level = 0;
};

}  // namespace

CoRunRuntime::CoRunRuntime(sim::MachineConfig config, RuntimeOptions options)
    : config_(std::move(config)), options_(options) {}

sim::EngineOptions CoRunRuntime::engine_options() const {
  sim::EngineOptions eo;
  eo.seed = options_.seed;
  eo.power_cap = options_.cap;
  eo.policy = options_.cap ? options_.policy : sim::GovernorPolicy::kNone;
  eo.sample_interval = options_.sample_interval;
  eo.record_samples = options_.record_power_trace;
  eo.thermal = options_.thermal;
  return eo;
}

ExecutionReport CoRunRuntime::execute(const workload::Batch& batch,
                                      const sched::Schedule& schedule) const {
  schedule.validate(batch.size());
  const std::unique_ptr<sim::Engine> machine =
      sim::make_machine_model(config_, engine_options(), options_.backend,
                              !options_.record_trace_path.empty());
  sim::Engine& engine = *machine;

  std::map<sim::JobId, std::size_t> id_to_batch;
  DeviceCursor cpu;
  DeviceCursor gpu;
  std::deque<sched::ScheduledJob> shared(schedule.shared.begin(),
                                         schedule.shared.end());
  cpu.pending.assign(schedule.cpu.begin(), schedule.cpu.end());
  gpu.pending.assign(schedule.gpu.begin(), schedule.gpu.end());

  const bool model_dvfs = schedule.model_dvfs && options_.predictor != nullptr;
  CORUN_CHECK_MSG(!schedule.model_dvfs || options_.predictor != nullptr,
                  "model_dvfs schedule executed without a predictor");
  auto apply_ceilings = [&] {
    sim::FreqLevel cpu_level = cpu.current ? cpu.current_level : 0;
    sim::FreqLevel gpu_level = gpu.current ? gpu.current_level : 0;
    if (model_dvfs) {
      // Re-derive the operating point for the current pairing, as the
      // paper's runtime does whenever the running set changes. Backlog
      // weighting keeps the busier device's pipeline fed (current job is
      // counted whole — the runtime does not track partial progress).
      const model::CoRunPredictor& m = *options_.predictor;
      auto t_max = [&](std::size_t job, sim::DeviceKind d) {
        return m.standalone_time(batch.job(job).instance_name, d,
                                 config_.ladder(d).max_level());
      };
      if (cpu.current && gpu.current) {
        auto backlog = [&](sim::DeviceKind d, std::size_t current,
                           const std::deque<sched::ScheduledJob>& pending) {
          Seconds b = t_max(current, d);
          for (const sched::ScheduledJob& q : pending) b += t_max(q.job, d);
          return b;
        };
        const Seconds b_cpu =
            backlog(sim::DeviceKind::kCpu, *cpu.current, cpu.pending);
        const Seconds b_gpu =
            backlog(sim::DeviceKind::kGpu, *gpu.current, gpu.pending);
        const auto pair = m.best_pair_weighted(
            batch.job(*cpu.current).instance_name,
            batch.job(*gpu.current).instance_name, options_.cap,
            b_cpu / t_max(*cpu.current, sim::DeviceKind::kCpu),
            b_gpu / t_max(*gpu.current, sim::DeviceKind::kGpu));
        if (pair) {
          cpu_level = pair->cpu;
          gpu_level = pair->gpu;
        }
      } else if (cpu.current) {
        cpu_level = m.best_solo_level(batch.job(*cpu.current).instance_name,
                                      sim::DeviceKind::kCpu, options_.cap)
                        .value_or(cpu_level);
      } else if (gpu.current) {
        gpu_level = m.best_solo_level(batch.job(*gpu.current).instance_name,
                                      sim::DeviceKind::kGpu, options_.cap)
                        .value_or(gpu_level);
      }
    }
    // Idle domains park at their floor; running domains request the chosen
    // level and the governor may still clamp below it.
    engine.set_ceilings(cpu.current ? cpu_level : 0,
                        gpu.current ? gpu_level : 0);
  };

  auto launch = [&](sim::DeviceKind d, const sched::ScheduledJob& sj) {
    DeviceCursor& cur = d == sim::DeviceKind::kCpu ? cpu : gpu;
    const sim::JobId id = engine.launch(batch.job(sj.job).spec, d);
    id_to_batch[id] = sj.job;
    cur.current = sj.job;
    cur.current_level = config_.ladder(d).clamp(sj.level);
  };

  auto feed = [&](sim::DeviceKind d) {
    DeviceCursor& cur = d == sim::DeviceKind::kCpu ? cpu : gpu;
    cur.current.reset();
    if (schedule.shared_queue) {
      if (!shared.empty()) {
        const sched::ScheduledJob sj = shared.front();
        shared.pop_front();
        launch(d, sj);
      }
    } else if (!cur.pending.empty()) {
      const sched::ScheduledJob sj = cur.pending.front();
      cur.pending.pop_front();
      launch(d, sj);
    }
  };

  // Kick off the co-run phase. GPU first so a shared queue's head goes to
  // the higher-throughput device, as in the evaluator.
  if (schedule.cpu_batch_launch) {
    // Default baseline: the whole CPU partition starts at once and
    // time-shares under the OS scheduler.
    for (const sched::ScheduledJob& sj : schedule.cpu) {
      const sim::JobId id = engine.launch(batch.job(sj.job).spec,
                                          sim::DeviceKind::kCpu);
      id_to_batch[id] = sj.job;
      cpu.current = sj.job;  // representative; all share one level request
      cpu.current_level = config_.cpu_ladder.clamp(sj.level);
    }
    cpu.pending.clear();
    feed(sim::DeviceKind::kGpu);
  } else {
    feed(sim::DeviceKind::kGpu);
    feed(sim::DeviceKind::kCpu);
  }
  apply_ceilings();

  while (!engine.idle()) {
    const auto events = engine.run_until_event();
    for (const sim::JobEvent& ev : events) {
      if (ev.device == sim::DeviceKind::kGpu) {
        feed(sim::DeviceKind::kGpu);
      } else if (!schedule.cpu_batch_launch) {
        feed(sim::DeviceKind::kCpu);
      } else if (engine.device_idle(sim::DeviceKind::kCpu)) {
        cpu.current.reset();
      }
    }
    apply_ceilings();
  }

  // Solo tail: each job runs with the other device idle.
  for (const sched::SoloJob& s : schedule.solo) {
    const sim::JobId id = engine.launch(batch.job(s.job).spec, s.device);
    id_to_batch[id] = s.job;
    if (s.device == sim::DeviceKind::kCpu) {
      cpu.current = s.job;
      cpu.current_level = config_.cpu_ladder.clamp(s.level);
      gpu.current.reset();
    } else {
      gpu.current = s.job;
      gpu.current_level = config_.gpu_ladder.clamp(s.level);
      cpu.current.reset();
    }
    apply_ceilings();
    engine.run_until_idle();
  }

  // Collect outcomes.
  ExecutionReport report;
  for (const sim::JobStats& st : engine.all_stats()) {
    CORUN_CHECK_MSG(st.finished, "job did not finish: " + st.name);
    report.jobs.push_back(JobOutcome{.job = id_to_batch.at(st.id),
                                     .name = st.name,
                                     .device = st.device,
                                     .start = st.start_time,
                                     .finish = st.finish_time});
    report.makespan = std::max(report.makespan, st.finish_time);
  }
  const sim::Telemetry& telemetry = engine.telemetry();
  report.energy = telemetry.energy();
  report.avg_power = telemetry.avg_power();
  report.cap_stats = telemetry.cap_stats();
  report.power_trace = telemetry.samples();
  report.thermal_trace = telemetry.thermal_samples();
  report.thermal = telemetry.thermal_stats();

  if (!options_.record_trace_path.empty()) {
    const auto saved = sim::save_demand_trace(
        static_cast<const sim::RecordingMachine&>(engine).trace(),
        options_.record_trace_path);
    CORUN_CHECK_MSG(saved.has_value(),
                    "failed to write demand trace: " +
                        options_.record_trace_path);
  }
  return report;
}

}  // namespace corun::runtime
