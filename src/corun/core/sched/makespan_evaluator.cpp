#include "corun/core/sched/makespan_evaluator.hpp"

#include <algorithm>
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

MakespanEvaluator::MakespanEvaluator(const SchedulerContext& ctx)
    : own_view_(std::in_place, ctx), view_(*own_view_) {}

MakespanEvaluator::MakespanEvaluator(const PlanView& view) : view_(view) {}

model::FreqPair MakespanEvaluator::enforce_cap(
    std::optional<std::size_t> cpu_job, std::optional<std::size_t> gpu_job,
    model::FreqPair levels) const {
  const SchedulerContext& ctx = view_.ctx();
  if (!ctx.cap) return levels;
  const Watts cap = *ctx.cap;
  auto power = [&] {
    if (cpu_job && gpu_job) {
      return view_.predict_power(*cpu_job, levels.cpu, *gpu_job, levels.gpu);
    }
    if (cpu_job) {
      return view_.standalone_power(*cpu_job, sim::DeviceKind::kCpu,
                                    levels.cpu);
    }
    if (gpu_job) {
      return view_.standalone_power(*gpu_job, sim::DeviceKind::kGpu,
                                    levels.gpu);
    }
    return 0.0;
  };
  const bool cpu_first = ctx.policy != sim::GovernorPolicy::kCpuBiased;
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
  Evaluation out;
  out.makespan = replay(schedule, std::numeric_limits<Seconds>::infinity(),
                        &out);
  return out;
}

Seconds MakespanEvaluator::makespan(const Schedule& schedule) const {
  return replay(schedule, std::numeric_limits<Seconds>::infinity(), nullptr);
}

Seconds MakespanEvaluator::makespan(const Schedule& schedule,
                                    Seconds limit) const {
  return replay(schedule, limit, nullptr);
}

Seconds MakespanEvaluator::replay(const Schedule& schedule, Seconds limit,
                                  Evaluation* out) const {
  const std::size_t n = view_.size();
  schedule.validate(n, seen_);
  const model::CoRunPredictor& m = view_.model();
  if (out != nullptr) out->finish_time.assign(n, 0.0);

  // Pending queues: each device's sequence from its cursor on. Shared-queue
  // schedules feed both devices from one list.
  std::size_t cpu_next = 0;
  std::size_t gpu_next = 0;
  std::size_t shared_next = 0;

  // Default-baseline approximation: the whole CPU partition time-shares, so
  // each CPU job behaves as if stretched by the oversubscription overheads.
  double cpu_stretch = 1.0;
  if (schedule.cpu_batch_launch && schedule.cpu.size() > 1) {
    const auto jobs = static_cast<double>(schedule.cpu.size());
    const sim::MachineConfig& mc = m.machine();
    cpu_stretch = (1.0 + mc.cs_overhead * (jobs - 1.0)) *
                  (1.0 + 0.5 * mc.cs_locality_penalty * (jobs - 1.0));
  }

  auto pull = [&](sim::DeviceKind d) -> std::optional<ScheduledJob> {
    if (schedule.shared_queue) {
      if (shared_next == schedule.shared.size()) return std::nullopt;
      ScheduledJob j = schedule.shared[shared_next++];
      // Shared-queue jobs carry no device-specific level choice: clamp to
      // the pulling device's ladder.
      j.level = m.machine().ladder(d).clamp(j.level);
      return j;
    }
    const bool on_cpu = d == sim::DeviceKind::kCpu;
    const std::vector<ScheduledJob>& seq = on_cpu ? schedule.cpu : schedule.gpu;
    std::size_t& next = on_cpu ? cpu_next : gpu_next;
    if (next == seq.size()) return std::nullopt;
    return seq[next++];
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

  // Model-driven DVFS: re-derive the operating point for the current
  // running set (see Schedule::model_dvfs), weighting each device by its
  // remaining backlog — in standalone seconds at max level, the view's
  // t_max — so one pair does not starve the busier pipeline. A pair or
  // level the searches find fits the cap by construction (they test the
  // very power enforce_cap predicts), so only the stored fallback levels
  // go through enforce_cap.
  auto resolve_levels = [&](const std::optional<std::size_t>& cpu_job,
                            const std::optional<std::size_t>& gpu_job,
                            model::FreqPair stored) -> model::FreqPair {
    if (!schedule.model_dvfs) return enforce_cap(cpu_job, gpu_job, stored);
    model::FreqPair levels = stored;
    if (cpu_job && gpu_job) {
      auto backlog = [&](sim::DeviceKind d, std::size_t current, double frac,
                         const std::vector<ScheduledJob>& seq,
                         std::size_t next) {
        Seconds b = frac * view_.t_max(current, d);
        for (std::size_t k = next; k < seq.size(); ++k) {
          b += view_.t_max(seq[k].job, d);
        }
        return std::max(b, 1e-6);
      };
      const Seconds b_cpu = backlog(sim::DeviceKind::kCpu, *cpu_job, cpu.frac,
                                   schedule.cpu, cpu_next);
      const Seconds b_gpu = backlog(sim::DeviceKind::kGpu, *gpu_job, gpu.frac,
                                    schedule.gpu, gpu_next);
      const auto pair = view_.best_pair_weighted(
          *cpu_job, *gpu_job,
          b_cpu / view_.t_max(*cpu_job, sim::DeviceKind::kCpu),
          b_gpu / view_.t_max(*gpu_job, sim::DeviceKind::kGpu));
      if (pair) return *pair;
    } else if (cpu_job) {
      const auto lvl = view_.best_solo_level(*cpu_job, sim::DeviceKind::kCpu);
      if (lvl) return model::FreqPair{*lvl, levels.gpu};
    } else if (gpu_job) {
      const auto lvl = view_.best_solo_level(*gpu_job, sim::DeviceKind::kGpu);
      if (lvl) return model::FreqPair{levels.cpu, *lvl};
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
          view_.predict(*cpu.job, levels.cpu, *gpu.job, levels.gpu);
      d_cpu = p.cpu_degradation;
      d_gpu = p.gpu_degradation;
      t_cpu_solo = p.cpu_solo_time;
      t_gpu_solo = p.gpu_solo_time;
    } else if (cpu.job) {
      t_cpu_solo =
          view_.standalone_time(*cpu.job, sim::DeviceKind::kCpu, levels.cpu);
    } else if (gpu.job) {
      t_gpu_solo =
          view_.standalone_time(*gpu.job, sim::DeviceKind::kGpu, levels.gpu);
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

    if (out != nullptr) {
      out->timeline.push_back(EvalSegment{.start = now,
                                          .end = now + dt,
                                          .cpu_job = cpu.job,
                                          .gpu_job = gpu.job,
                                          .levels = levels,
                                          .cpu_degradation = d_cpu,
                                          .gpu_degradation = d_gpu});
    }

    if (cpu.job) {
      cpu.frac -= dt / (t_cpu_solo * (1.0 + d_cpu) * cpu_stretch);
    }
    if (gpu.job) {
      gpu.frac -= dt / (t_gpu_solo * (1.0 + d_gpu));
    }
    now += dt;
    if (now >= limit) return now;

    if (cpu.job && cpu.frac <= kDoneEps) {
      if (out != nullptr) out->finish_time[*cpu.job] = now;
      start_on(sim::DeviceKind::kCpu);
    }
    if (gpu.job && gpu.frac <= kDoneEps) {
      if (out != nullptr) out->finish_time[*gpu.job] = now;
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
    const Seconds t = view_.standalone_time(s.job, s.device, lvl);
    if (out != nullptr) {
      out->timeline.push_back(EvalSegment{.start = now,
                                          .end = now + t,
                                          .cpu_job = cpu_job,
                                          .gpu_job = gpu_job,
                                          .levels = levels});
    }
    now += t;
    if (out != nullptr) out->finish_time[s.job] = now;
    if (now >= limit) return now;
  }
  return now;
}

}  // namespace corun::sched
