#include "corun/profile/online_profiler.hpp"

#include <algorithm>
#include <memory>

#include "corun/common/check.hpp"
#include "corun/common/task_pool.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/sim/engine.hpp"

namespace corun::profile {

OnlineProfiler::OnlineProfiler(sim::MachineConfig config,
                               OnlineProfilerOptions options)
    : config_(std::move(config)), options_(std::move(options)) {
  CORUN_CHECK(options_.sample_seconds > 0.0);
}

std::vector<sim::FreqLevel> OnlineProfiler::level_set(sim::DeviceKind d) const {
  CORUN_TRACE_COUNTER("online.level_set_evals", 1);
  const sim::FrequencyLadder& ladder = config_.ladder(d);
  std::vector<sim::FreqLevel> levels =
      d == sim::DeviceKind::kCpu ? options_.cpu_levels : options_.gpu_levels;
  levels.push_back(ladder.max_level());
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  for (const sim::FreqLevel l : levels) {
    CORUN_CHECK(l >= 0 && l <= ladder.max_level());
  }
  return levels;
}

ProfileEntry OnlineProfiler::sample_one(const sim::JobSpec& spec,
                                        sim::DeviceKind device,
                                        sim::FreqLevel level) const {
  const trace::Span span("profile", [&] {
    return "online.sample " + spec.name + "/" + sim::device_name(device) +
           "/L" + std::to_string(level);
  });
  sim::EngineOptions eo;
  eo.seed = options_.seed;
  eo.record_samples = false;
  const std::unique_ptr<sim::Engine> machine =
      sim::make_machine_model(config_, eo, options_.backend);
  sim::Engine& engine = *machine;
  engine.set_ceilings(device == sim::DeviceKind::kCpu ? level : 0,
                      device == sim::DeviceKind::kGpu ? level : 0);
  const sim::JobId id = engine.launch(spec, device);
  // Stop at the job's finishing tick instead of padding out the window:
  // telemetry then spans the job's runtime only, so avg_power/energy of a
  // job shorter than the window are not diluted by post-finish idle ticks
  // (they match the offline profiler's measured values exactly).
  engine.run_for_until_event(options_.sample_seconds);

  const sim::JobStats& st = engine.stats(id);
  ProfileEntry entry;
  if (st.finished) {
    entry.time = st.runtime();
    entry.avg_bw = st.avg_bandwidth();
    entry.avg_power = engine.telemetry().avg_power();
    entry.energy = engine.telemetry().energy();  // measured, whole run
  } else {
    const double p = engine.progress(id);
    CORUN_CHECK_MSG(p > 0.0, "no progress in the sampling window");
    entry.time = options_.sample_seconds / p;
    entry.avg_bw = st.total_gb / options_.sample_seconds;
    entry.avg_power = engine.telemetry().avg_power();
    entry.energy = entry.avg_power * entry.time;  // extrapolated
  }
  return entry;
}

ProfileDB OnlineProfiler::profile_batch(const workload::Batch& batch) const {
  CORUN_TRACE_SPAN("profile", "online.profile_batch");
  CORUN_TRACE_INSTANT("profile", "online.backend=" + options_.backend.name());
  ProfileDB db;
  // Idle power is a one-second measurement either way; reuse the engine.
  {
    sim::EngineOptions eo;
    eo.seed = options_.seed;
    eo.record_samples = false;
    const std::unique_ptr<sim::Engine> machine =
        sim::make_machine_model(config_, eo, options_.backend);
    machine->set_ceilings(0, 0);
    machine->run_for(1.0);
    db.set_idle_power(machine->telemetry().avg_power());
  }
  // Same deterministic fan-out as the offline profiler: each sampling
  // window is an independent engine run, collected in task-index order.
  struct Task {
    const workload::BatchJob* job;
    sim::DeviceKind device;
    sim::FreqLevel level;
  };
  std::vector<Task> tasks;
  for (const workload::BatchJob& job : batch.jobs()) {
    for (const sim::DeviceKind device :
         {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
      for (const sim::FreqLevel level : level_set(device)) {
        tasks.push_back({&job, device, level});
      }
    }
  }
  const std::vector<ProfileEntry> entries =
      common::TaskPool::shared().parallel_map<ProfileEntry>(
          tasks.size(), [&](std::size_t i) {
            const Task& t = tasks[i];
            return sample_one(t.job->spec, t.device, t.level);
          });
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    db.insert(tasks[i].job->instance_name, tasks[i].device, tasks[i].level,
              entries[i]);
  }
  return db;
}

Seconds OnlineProfiler::sampling_cost(const workload::Batch& batch) const {
  // The level sets are batch-invariant, so derive the per-job window count
  // once instead of rebuilding both sets for every job.
  const auto windows_per_job =
      static_cast<double>(level_set(sim::DeviceKind::kCpu).size() +
                          level_set(sim::DeviceKind::kGpu).size());
  return options_.sample_seconds * windows_per_job *
         static_cast<double>(batch.jobs().size());
}

}  // namespace corun::profile
