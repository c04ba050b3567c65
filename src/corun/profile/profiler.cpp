#include "corun/profile/profiler.hpp"

#include <algorithm>
#include <memory>

#include "corun/common/check.hpp"
#include "corun/common/task_pool.hpp"
#include "corun/common/trace/trace.hpp"

namespace corun::profile {

Profiler::Profiler(sim::MachineConfig config, ProfilerOptions options)
    : config_(std::move(config)), options_(std::move(options)) {}

std::vector<sim::FreqLevel> Profiler::level_set(sim::DeviceKind d) const {
  const sim::FrequencyLadder& ladder = config_.ladder(d);
  const auto& requested =
      d == sim::DeviceKind::kCpu ? options_.cpu_levels : options_.gpu_levels;
  std::vector<sim::FreqLevel> levels;
  if (requested.empty()) {
    for (sim::FreqLevel l = 0; l <= ladder.max_level(); ++l) levels.push_back(l);
    return levels;
  }
  levels = requested;
  levels.push_back(ladder.max_level());  // max level is always needed
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  for (sim::FreqLevel l : levels) {
    CORUN_CHECK(l >= 0 && l <= ladder.max_level());
  }
  return levels;
}

ProfileEntry Profiler::profile_one(const sim::JobSpec& spec,
                                   sim::DeviceKind device,
                                   sim::FreqLevel level) const {
  const trace::Span span("profile", [&] {
    return "profile.sample " + spec.name + "/" + sim::device_name(device) +
           "/L" + std::to_string(level);
  });
  // The idle domain is parked at its lowest level, as a power-aware OS
  // would; its idle power is level-independent in the model but parking
  // mirrors the measurement procedure on real hardware.
  const sim::FreqLevel cpu_level =
      device == sim::DeviceKind::kCpu ? level : 0;
  const sim::FreqLevel gpu_level =
      device == sim::DeviceKind::kGpu ? level : 0;
  const sim::StandaloneResult r =
      sim::run_standalone(config_, spec, device, cpu_level, gpu_level,
                          options_.seed, options_.backend);
  return ProfileEntry{.time = r.time,
                      .avg_bw = r.avg_bandwidth,
                      .avg_power = r.avg_power,
                      .energy = r.energy};
}

ProfileDB Profiler::profile_batch(const workload::Batch& batch) const {
  CORUN_TRACE_SPAN("profile", "profile.profile_batch");
  CORUN_TRACE_INSTANT("profile", "profile.backend=" + options_.backend.name());
  ProfileDB db;
  db.set_idle_power(measure_idle_power());

  // Flatten the job x device x level sweep into an index space and fan it
  // out: every measurement is an independent standalone simulation seeded
  // from options_, so parallel and serial sweeps measure identical numbers.
  // Results are inserted in task-index order after the barrier, keeping the
  // DB (and its CSV) byte-identical to a serial sweep.
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
            return profile_one(t.job->spec, t.device, t.level);
          });
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    db.insert(tasks[i].job->instance_name, tasks[i].device, tasks[i].level,
              entries[i]);
  }
  return db;
}

Watts Profiler::measure_idle_power() const {
  sim::EngineOptions options;
  options.seed = options_.seed;
  options.record_samples = false;
  const std::unique_ptr<sim::Engine> machine =
      sim::make_machine_model(config_, options, options_.backend);
  machine->set_ceilings(0, 0);
  machine->run_for(1.0);
  return machine->telemetry().avg_power();
}

}  // namespace corun::profile
