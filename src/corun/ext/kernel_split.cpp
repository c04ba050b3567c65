#include "corun/ext/kernel_split.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "corun/common/check.hpp"
#include "corun/sim/backend.hpp"

namespace corun::ext {
namespace {

constexpr std::size_t kMaxStages = 16;

/// Extra wall time a cold start costs for a stage of reference length `t`.
Seconds cold_extra(const SplitOptions& options, Seconds stage_time) {
  return options.cold_start_fraction * stage_time *
         (options.cold_start_penalty - 1.0);
}

}  // namespace

std::size_t StagePlacement::handoffs() const noexcept {
  std::size_t count = 0;
  for (std::size_t i = 1; i < device.size(); ++i) {
    if (device[i] != device[i - 1]) ++count;
  }
  return count;
}

bool StagePlacement::is_whole_job() const noexcept {
  return handoffs() == 0;
}

KernelSplitPlanner::KernelSplitPlanner(sim::MachineConfig config,
                                       SplitOptions options)
    : config_(std::move(config)), options_(options) {
  CORUN_CHECK(options_.handoff_latency >= 0.0);
  CORUN_CHECK(options_.cold_start_penalty >= 1.0);
  CORUN_CHECK(options_.cold_start_fraction >= 0.0 &&
              options_.cold_start_fraction <= 1.0);
}

Seconds KernelSplitPlanner::stage_time(const workload::KernelDescriptor& stage,
                                       sim::DeviceKind device,
                                       std::optional<Watts> cap) const {
  const sim::JobSpec spec = workload::make_job_spec(stage, options_.seed);
  const sim::FrequencyLadder& ladder = config_.ladder(device);
  Seconds best = std::numeric_limits<Seconds>::infinity();
  for (sim::FreqLevel l = 0; l <= ladder.max_level(); ++l) {
    const sim::StandaloneResult r = sim::run_standalone(
        config_, spec, device,
        device == sim::DeviceKind::kCpu ? l : 0,
        device == sim::DeviceKind::kGpu ? l : 0, options_.seed);
    if (cap && r.avg_power > *cap) continue;
    best = std::min(best, r.time);
  }
  return best;
}

Seconds KernelSplitPlanner::predict(const MultiKernelJob& job,
                                    const StagePlacement& placement,
                                    std::optional<Watts> cap) const {
  CORUN_CHECK(placement.device.size() == job.stage_count());
  Seconds total = 0.0;
  for (std::size_t i = 0; i < job.stage_count(); ++i) {
    const Seconds t = stage_time(job.stages[i], placement.device[i], cap);
    CORUN_CHECK_MSG(t < std::numeric_limits<Seconds>::infinity(),
                    "stage infeasible under the cap");
    total += t;
    if (i > 0 && placement.device[i] != placement.device[i - 1]) {
      total += options_.handoff_latency + cold_extra(options_, t);
    }
  }
  return total;
}

SplitPlan KernelSplitPlanner::plan(const MultiKernelJob& job,
                                   std::optional<Watts> cap) const {
  const std::size_t k = job.stage_count();
  CORUN_CHECK_MSG(k >= 1 && k <= kMaxStages,
                  "chains limited to 1..16 stages");

  // Per-stage per-device times, measured once.
  std::vector<std::array<Seconds, sim::kDeviceCount>> t(k);
  for (std::size_t i = 0; i < k; ++i) {
    t[i][0] = stage_time(job.stages[i], sim::DeviceKind::kCpu, cap);
    t[i][1] = stage_time(job.stages[i], sim::DeviceKind::kGpu, cap);
    CORUN_CHECK_MSG(t[i][0] < 1e18 || t[i][1] < 1e18,
                    "stage infeasible on both devices");
  }

  SplitPlan plan;
  plan.predicted_time = std::numeric_limits<Seconds>::infinity();
  for (std::size_t mask = 0; mask < (1ull << k); ++mask) {
    Seconds total = 0.0;
    bool feasible = true;
    for (std::size_t i = 0; i < k && feasible; ++i) {
      const std::size_t d = (mask >> i) & 1u;  // 0 = CPU, 1 = GPU
      if (t[i][d] >= 1e18) {
        feasible = false;
        break;
      }
      total += t[i][d];
      if (i > 0 && (((mask >> i) & 1u) != ((mask >> (i - 1)) & 1u))) {
        total += options_.handoff_latency + cold_extra(options_, t[i][d]);
      }
    }
    if (!feasible) continue;
    ++plan.placements_searched;
    if (mask == 0) plan.whole_cpu_time = total;
    if (mask == (1ull << k) - 1) plan.whole_gpu_time = total;
    if (total < plan.predicted_time) {
      plan.predicted_time = total;
      plan.placement.device.assign(k, sim::DeviceKind::kCpu);
      for (std::size_t i = 0; i < k; ++i) {
        if ((mask >> i) & 1u) plan.placement.device[i] = sim::DeviceKind::kGpu;
      }
    }
  }
  CORUN_CHECK_MSG(plan.placements_searched > 0, "no feasible placement");
  return plan;
}

Seconds execute_split(const sim::MachineConfig& config,
                      const MultiKernelJob& job,
                      const StagePlacement& placement,
                      const SplitOptions& options, std::optional<Watts> cap,
                      const sim::JobSpec* co_runner,
                      sim::DeviceKind co_runner_device) {
  CORUN_CHECK(placement.device.size() == job.stage_count());
  sim::EngineOptions eo;
  eo.seed = options.seed;
  eo.record_samples = false;
  if (cap) {
    eo.power_cap = cap;
    eo.policy = sim::GovernorPolicy::kGpuBiased;
  }
  sim::Engine engine(config, eo);
  engine.set_ceilings(config.cpu_ladder.max_level(),
                      config.gpu_ladder.max_level());
  if (co_runner != nullptr) {
    engine.launch(*co_runner, co_runner_device);
  }

  Seconds chain_end = 0.0;
  for (std::size_t i = 0; i < job.stage_count(); ++i) {
    const sim::DeviceKind device = placement.device[i];
    if (i > 0 && device != placement.device[i - 1]) {
      // Handoff: synchronization latency plus the cold-cache refill,
      // charged as dead time before the stage starts (the analytic model
      // charges the equivalent stretch inside the stage).
      const sim::JobSpec probe = workload::make_job_spec(job.stages[i], options.seed);
      const Seconds approx_stage =
          probe.profile(device).total_ref_time();
      engine.run_for(options.handoff_latency +
                     options.cold_start_fraction * approx_stage *
                         (options.cold_start_penalty - 1.0));
    }
    const sim::JobSpec spec =
        workload::make_job_spec(job.stages[i], options.seed + i);
    if (co_runner != nullptr && device == co_runner_device) {
      // Stage wants the device the co-runner holds: on the real system the
      // queue serializes; here the chain waits for the co-runner to finish.
      while (!engine.device_idle(device)) {
        if (engine.idle()) break;
        (void)engine.run_until_event();
      }
    }
    const sim::JobId id = engine.launch(spec, device);
    while (!engine.stats(id).finished) {
      (void)engine.run_until_event();
    }
    chain_end = engine.stats(id).finish_time;
  }
  return chain_end;
}

MultiKernelJob make_alternating_chain(std::size_t stages,
                                      Seconds stage_seconds) {
  CORUN_CHECK(stages >= 1 && stages <= kMaxStages);
  MultiKernelJob job;
  job.name = "alternating_chain";
  for (std::size_t i = 0; i < stages; ++i) {
    workload::KernelDescriptor stage;
    stage.name = "stage" + std::to_string(i);
    stage.phase_count = 4;
    stage.phase_variability = 0.15;
    if (i % 2 == 0) {
      // CPU-friendly: branchy, cache-resident work the iGPU handles poorly.
      stage.cpu = {.base_time = stage_seconds, .compute_frac = 0.6,
                   .mem_bw = 6.0, .llc_footprint_mb = 1.5,
                   .llc_sensitivity = 0.3};
      stage.gpu = {.base_time = stage_seconds * 2.4, .compute_frac = 0.55,
                   .mem_bw = 6.0, .llc_footprint_mb = 1.5,
                   .llc_sensitivity = 0.1};
    } else {
      // GPU-friendly: wide data-parallel work.
      stage.cpu = {.base_time = stage_seconds * 2.4, .compute_frac = 0.5,
                   .mem_bw = 7.0, .llc_footprint_mb = 2.0,
                   .llc_sensitivity = 0.3};
      stage.gpu = {.base_time = stage_seconds, .compute_frac = 0.45,
                   .mem_bw = 8.0, .llc_footprint_mb = 2.0,
                   .llc_sensitivity = 0.1};
    }
    job.stages.push_back(stage);
  }
  return job;
}

MultiKernelJob make_uniform_gpu_chain(std::size_t stages,
                                      Seconds stage_seconds) {
  CORUN_CHECK(stages >= 1 && stages <= kMaxStages);
  MultiKernelJob job;
  job.name = "uniform_gpu_chain";
  for (std::size_t i = 0; i < stages; ++i) {
    workload::KernelDescriptor stage;
    stage.name = "stage" + std::to_string(i);
    stage.phase_count = 4;
    stage.phase_variability = 0.15;
    stage.cpu = {.base_time = stage_seconds * 2.2, .compute_frac = 0.5,
                 .mem_bw = 7.0, .llc_footprint_mb = 2.0,
                 .llc_sensitivity = 0.3};
    stage.gpu = {.base_time = stage_seconds, .compute_frac = 0.45,
                 .mem_bw = 8.0, .llc_footprint_mb = 2.0,
                 .llc_sensitivity = 0.1};
    job.stages.push_back(stage);
  }
  return job;
}

}  // namespace corun::ext
