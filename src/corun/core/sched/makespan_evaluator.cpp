#include "corun/core/sched/makespan_evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <vector>

#include "corun/common/check.hpp"

namespace corun::sched {
namespace {

constexpr double kDoneEps = 1e-12;

/// Running state of one device during replay.
struct DeviceState {
  std::optional<std::size_t> job;
  sim::FreqLevel level = 0;
  double frac = 0.0;  ///< fraction of the job still to execute
};

}  // namespace

MakespanEvaluator::MakespanEvaluator(const SchedulerContext& ctx) : ctx_(ctx) {
  CORUN_CHECK(ctx.batch != nullptr && ctx.predictor != nullptr);
}

model::FreqPair MakespanEvaluator::enforce_cap(
    std::optional<std::size_t> cpu_job, std::optional<std::size_t> gpu_job,
    model::FreqPair levels) const {
  if (!ctx_.cap) return levels;
  const model::CoRunPredictor& m = ctx_.model();
  const Watts cap = *ctx_.cap;
  auto power = [&] {
    if (cpu_job && gpu_job) {
      return m.predict_power(ctx_.job_name(*cpu_job), levels.cpu,
                             ctx_.job_name(*gpu_job), levels.gpu);
    }
    if (cpu_job) {
      return m.standalone_power(ctx_.job_name(*cpu_job), sim::DeviceKind::kCpu,
                                levels.cpu);
    }
    if (gpu_job) {
      return m.standalone_power(ctx_.job_name(*gpu_job), sim::DeviceKind::kGpu,
                                levels.gpu);
    }
    return 0.0;
  };
  const bool cpu_first = ctx_.policy != sim::GovernorPolicy::kCpuBiased;
  while (power() > cap) {
    if (cpu_first) {
      if (cpu_job && levels.cpu > 0) {
        --levels.cpu;
      } else if (gpu_job && levels.gpu > 0) {
        --levels.gpu;
      } else {
        break;  // already at the floor; the cap simply cannot be met
      }
    } else {
      if (gpu_job && levels.gpu > 0) {
        --levels.gpu;
      } else if (cpu_job && levels.cpu > 0) {
        --levels.cpu;
      } else {
        break;
      }
    }
  }
  return levels;
}

Evaluation MakespanEvaluator::evaluate(const Schedule& schedule) const {
  const workload::Batch& batch = ctx_.jobs();
  schedule.validate(batch.size());
  const model::CoRunPredictor& m = ctx_.model();

  Evaluation out;
  out.finish_time.assign(batch.size(), 0.0);

  // Pending queues. Shared-queue schedules feed both devices from one list.
  std::deque<ScheduledJob> cpu_pending(schedule.cpu.begin(), schedule.cpu.end());
  std::deque<ScheduledJob> gpu_pending(schedule.gpu.begin(), schedule.gpu.end());
  std::deque<ScheduledJob> shared_pending(schedule.shared.begin(),
                                          schedule.shared.end());

  // Default-baseline approximation: the whole CPU partition time-shares, so
  // each CPU job behaves as if stretched by the oversubscription overheads.
  double cpu_stretch = 1.0;
  if (schedule.cpu_batch_launch && schedule.cpu.size() > 1) {
    const auto n = static_cast<double>(schedule.cpu.size());
    const sim::MachineConfig& mc = m.machine();
    cpu_stretch = (1.0 + mc.cs_overhead * (n - 1.0)) *
                  (1.0 + 0.5 * mc.cs_locality_penalty * (n - 1.0));
  }

  auto pull = [&](sim::DeviceKind d) -> std::optional<ScheduledJob> {
    if (schedule.shared_queue) {
      if (shared_pending.empty()) return std::nullopt;
      ScheduledJob j = shared_pending.front();
      shared_pending.pop_front();
      // Shared-queue jobs carry no device-specific level choice: clamp to
      // the pulling device's ladder.
      j.level = m.machine().ladder(d).clamp(j.level);
      return j;
    }
    auto& q = d == sim::DeviceKind::kCpu ? cpu_pending : gpu_pending;
    if (q.empty()) return std::nullopt;
    const ScheduledJob j = q.front();
    q.pop_front();
    return j;
  };

  DeviceState cpu;
  DeviceState gpu;
  auto start_on = [&](sim::DeviceKind d) {
    DeviceState& st = d == sim::DeviceKind::kCpu ? cpu : gpu;
    const auto next = pull(d);
    if (!next) {
      st.job.reset();
      return;
    }
    st.job = next->job;
    st.level = next->level;
    st.frac = 1.0;
  };

  Seconds now = 0.0;
  // GPU first at t=0 (the higher-throughput device drains the shared queue
  // head first, matching the runtime's launch order).
  start_on(sim::DeviceKind::kGpu);
  start_on(sim::DeviceKind::kCpu);

  // Standalone time at the device's max level: the normalization unit for
  // backlog weighting. Looked up on first use, so at most once per (job,
  // device) and only on a device the job is queued on.
  std::vector<Seconds> t_max_memo(2 * batch.size(),
                                  std::numeric_limits<Seconds>::quiet_NaN());
  auto t_max = [&](std::size_t job, sim::DeviceKind d) {
    Seconds& t = t_max_memo[2 * job + (d == sim::DeviceKind::kGpu ? 1 : 0)];
    if (std::isnan(t)) {
      t = m.standalone_time(ctx_.job_name(job), d,
                            m.machine().ladder(d).max_level());
    }
    return t;
  };

  // Model-driven DVFS: re-derive the operating point for the current
  // running set (see Schedule::model_dvfs), weighting each device by its
  // remaining backlog so one pair does not starve the busier pipeline.
  auto resolve_levels = [&](const std::optional<std::size_t>& cpu_job,
                            const std::optional<std::size_t>& gpu_job,
                            model::FreqPair stored) -> model::FreqPair {
    if (!schedule.model_dvfs) return enforce_cap(cpu_job, gpu_job, stored);
    model::FreqPair levels = stored;
    if (cpu_job && gpu_job) {
      auto backlog = [&](sim::DeviceKind d, std::size_t current, double frac,
                         const std::deque<ScheduledJob>& pending) {
        Seconds b = frac * t_max(current, d);
        for (const ScheduledJob& q : pending) b += t_max(q.job, d);
        return std::max(b, 1e-6);
      };
      const Seconds b_cpu =
          backlog(sim::DeviceKind::kCpu, *cpu_job, cpu.frac, cpu_pending);
      const Seconds b_gpu =
          backlog(sim::DeviceKind::kGpu, *gpu_job, gpu.frac, gpu_pending);
      const auto pair = m.best_pair_weighted(
          ctx_.job_name(*cpu_job), ctx_.job_name(*gpu_job), ctx_.cap,
          b_cpu / t_max(*cpu_job, sim::DeviceKind::kCpu),
          b_gpu / t_max(*gpu_job, sim::DeviceKind::kGpu));
      if (pair) levels = *pair;
    } else if (cpu_job) {
      const auto lvl = m.best_solo_level(ctx_.job_name(*cpu_job),
                                         sim::DeviceKind::kCpu, ctx_.cap);
      if (lvl) levels.cpu = *lvl;
    } else if (gpu_job) {
      const auto lvl = m.best_solo_level(ctx_.job_name(*gpu_job),
                                         sim::DeviceKind::kGpu, ctx_.cap);
      if (lvl) levels.gpu = *lvl;
    }
    return enforce_cap(cpu_job, gpu_job, levels);
  };

  while (cpu.job || gpu.job) {
    const model::FreqPair levels =
        resolve_levels(cpu.job, gpu.job, {cpu.level, gpu.level});

    double d_cpu = 0.0;
    double d_gpu = 0.0;
    Seconds t_cpu_solo = 0.0;
    Seconds t_gpu_solo = 0.0;
    if (cpu.job && gpu.job) {
      const model::PairPrediction p =
          m.predict(ctx_.job_name(*cpu.job), levels.cpu,
                    ctx_.job_name(*gpu.job), levels.gpu);
      d_cpu = p.cpu_degradation;
      d_gpu = p.gpu_degradation;
      t_cpu_solo = p.cpu_solo_time;
      t_gpu_solo = p.gpu_solo_time;
    } else if (cpu.job) {
      t_cpu_solo = m.standalone_time(ctx_.job_name(*cpu.job),
                                     sim::DeviceKind::kCpu, levels.cpu);
    } else if (gpu.job) {
      t_gpu_solo = m.standalone_time(ctx_.job_name(*gpu.job),
                                     sim::DeviceKind::kGpu, levels.gpu);
    }

    const Seconds cpu_to_finish =
        cpu.job ? cpu.frac * t_cpu_solo * (1.0 + d_cpu) * cpu_stretch
                : std::numeric_limits<Seconds>::infinity();
    const Seconds gpu_to_finish =
        gpu.job ? gpu.frac * t_gpu_solo * (1.0 + d_gpu)
                : std::numeric_limits<Seconds>::infinity();
    const Seconds dt = std::min(cpu_to_finish, gpu_to_finish);
    CORUN_CHECK_MSG(dt > 0.0 && dt < std::numeric_limits<Seconds>::infinity(),
                    "evaluator made no progress");

    out.timeline.push_back(EvalSegment{.start = now,
                                       .end = now + dt,
                                       .cpu_job = cpu.job,
                                       .gpu_job = gpu.job,
                                       .levels = levels,
                                       .cpu_degradation = d_cpu,
                                       .gpu_degradation = d_gpu});

    if (cpu.job) {
      cpu.frac -= dt / (t_cpu_solo * (1.0 + d_cpu) * cpu_stretch);
    }
    if (gpu.job) {
      gpu.frac -= dt / (t_gpu_solo * (1.0 + d_gpu));
    }
    now += dt;

    if (cpu.job && cpu.frac <= kDoneEps) {
      out.finish_time[*cpu.job] = now;
      start_on(sim::DeviceKind::kCpu);
    }
    if (gpu.job && gpu.frac <= kDoneEps) {
      out.finish_time[*gpu.job] = now;
      start_on(sim::DeviceKind::kGpu);
    }
  }

  // Solo tail: strictly sequential, the other device idles.
  for (const SoloJob& s : schedule.solo) {
    model::FreqPair levels{0, 0};
    std::optional<std::size_t> cpu_job;
    std::optional<std::size_t> gpu_job;
    if (s.device == sim::DeviceKind::kCpu) {
      cpu_job = s.job;
      levels.cpu = s.level;
    } else {
      gpu_job = s.job;
      levels.gpu = s.level;
    }
    levels = resolve_levels(cpu_job, gpu_job, levels);
    const sim::FreqLevel lvl =
        s.device == sim::DeviceKind::kCpu ? levels.cpu : levels.gpu;
    const Seconds t = m.standalone_time(ctx_.job_name(s.job), s.device, lvl);
    out.timeline.push_back(EvalSegment{.start = now,
                                       .end = now + t,
                                       .cpu_job = cpu_job,
                                       .gpu_job = gpu_job,
                                       .levels = levels});
    now += t;
    out.finish_time[s.job] = now;
  }

  out.makespan = now;
  return out;
}

Seconds MakespanEvaluator::makespan(const Schedule& schedule) const {
  return evaluate(schedule).makespan;
}

}  // namespace corun::sched
