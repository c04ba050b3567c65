#include "corun/core/sched/hcs.hpp"

#include <algorithm>
#include <limits>

#include "corun/common/check.hpp"
#include "corun/common/log.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/core/sched/corun_theorem.hpp"

namespace corun::sched {
namespace {

/// Greedy-loop bookkeeping for one device.
struct Running {
  std::optional<std::size_t> job;
  sim::FreqLevel level = 0;
  double frac = 1.0;  ///< fraction of the job still to execute
};

}  // namespace

const char* preference_name(Preference p) noexcept {
  switch (p) {
    case Preference::kCpu: return "CPU";
    case Preference::kGpu: return "GPU";
    case Preference::kNone: return "Non";
  }
  return "?";
}

HcsScheduler::HcsScheduler(HcsOptions options) : options_(options) {
  CORUN_CHECK(options_.preference_threshold >= 0.0);
}

std::optional<model::FreqPair> HcsScheduler::choose_pair(
    const PlanView& view, std::size_t cpu_job, std::size_t gpu_job) const {
  // Weights of 1: the pair minimizing the pair's completion bound.
  return options_.min_degradation_freq
             ? view.best_pair_min_degradation(cpu_job, gpu_job)
             : view.best_pair_weighted(cpu_job, gpu_job, 1.0, 1.0);
}

bool HcsScheduler::pair_beneficial(const PlanView& view, std::size_t i,
                                   std::size_t j) const {
  // Sequential alternative: each job solo on its best cap-feasible device.
  auto best_solo = [&](std::size_t job) {
    return std::min(view.best_solo_time(job, sim::DeviceKind::kCpu),
                    view.best_solo_time(job, sim::DeviceKind::kGpu));
  };
  const Seconds sequential = best_solo(i) + best_solo(j);

  // Co-run alternative: both placements, best cap-feasible frequency pair.
  // The theorem's conservative criterion compares the fully-degraded co-run
  // makespan (both jobs contended throughout, as in a drained-queue steady
  // state) against sequential execution — this is what lets genuinely
  // antagonistic jobs land in S_seq.
  auto corun_makespan = [&](std::size_t cpu_job, std::size_t gpu_job) {
    const auto pair = choose_pair(view, cpu_job, gpu_job);
    if (!pair) return std::numeric_limits<Seconds>::infinity();
    const model::PairPrediction p =
        view.predict(cpu_job, pair->cpu, gpu_job, pair->gpu);
    return std::max(p.cpu_time, p.gpu_time);
  };
  const Seconds best_corun =
      std::min(corun_makespan(i, j), corun_makespan(j, i));
  return best_corun < sequential;
}

std::vector<bool> HcsScheduler::corun_partition(const PlanView& view) const {
  const std::size_t n = view.size();
  std::vector<bool> in_corun(n, true);
  if (!options_.use_theorem_partition || n < 2) {
    return in_corun;
  }
  for (std::size_t i = 0; i < n; ++i) {
    bool any = false;
    for (std::size_t j = 0; j < n && !any; ++j) {
      if (j == i) continue;
      any = pair_beneficial(view, i, j);
    }
    in_corun[i] = any;
  }
  return in_corun;
}

Preference HcsScheduler::categorize(const PlanView& view,
                                    std::size_t job) const {
  const auto cpu_level = view.best_solo_level(job, sim::DeviceKind::kCpu);
  const auto gpu_level = view.best_solo_level(job, sim::DeviceKind::kGpu);
  CORUN_CHECK_MSG(cpu_level || gpu_level,
                  "job " + view.ctx().job_name(job) +
                      " cannot run under the cap on any device");
  if (!cpu_level) return Preference::kGpu;
  if (!gpu_level) return Preference::kCpu;

  const Seconds t_cpu = view.best_solo_time(job, sim::DeviceKind::kCpu);
  const Seconds t_gpu = view.best_solo_time(job, sim::DeviceKind::kGpu);
  const Seconds diff = std::abs(t_cpu - t_gpu) / std::max(t_cpu, t_gpu);
  if (diff <= options_.preference_threshold) return Preference::kNone;
  return t_cpu < t_gpu ? Preference::kCpu : Preference::kGpu;
}

std::string HcsTrace::to_string(
    const std::vector<std::string>& job_names) const {
  auto name = [&](std::size_t job) {
    return job < job_names.size() ? job_names[job] : "#" + std::to_string(job);
  };
  std::ostringstream oss;
  oss << "S_co:";
  for (std::size_t i = 0; i < in_corun.size(); ++i) {
    if (in_corun[i]) oss << ' ' << name(i);
  }
  oss << "\nS_seq:";
  for (std::size_t i = 0; i < in_corun.size(); ++i) {
    if (!in_corun[i]) oss << ' ' << name(i);
  }
  oss << "\npreferences:";
  for (std::size_t i = 0; i < preference.size(); ++i) {
    oss << ' ' << name(i) << '=' << preference_name(preference[i]);
  }
  oss << '\n';
  for (const PairingDecision& d : decisions) {
    oss << "t=" << d.predicted_start << "s: " << sim::device_name(d.device)
        << " <- " << name(d.job) << " (tier " << preference_name(d.tier);
    if (d.partner) {
      oss << ", vs " << name(*d.partner) << ", interference "
          << d.degradation_sum;
    } else {
      oss << ", device otherwise idle";
    }
    oss << ", L" << d.level << ")\n";
  }
  return oss.str();
}

Schedule HcsScheduler::plan(const SchedulerContext& ctx) {
  return plan_traced(ctx, nullptr);
}

Schedule HcsScheduler::plan_traced(const SchedulerContext& ctx,
                                   HcsTrace* trace) {
  const PlanView view(ctx);
  return plan_traced(view, trace);
}

Schedule HcsScheduler::plan_traced(const PlanView& view, HcsTrace* trace) {
  CORUN_TRACE_SPAN("sched", "hcs.plan");
  const std::size_t n = view.size();
  Schedule schedule;
  if (n == 0) return schedule;

  // Step 1: theorem-based partition.
  const std::vector<bool> in_corun = corun_partition(view);

  // Step 2: preference categorization of the co-run set.
  std::vector<Preference> pref(n, Preference::kNone);
  std::vector<std::size_t> remaining;  // S_co members not yet placed
  for (std::size_t i = 0; i < n; ++i) {
    pref[i] = categorize(view, i);
    if (in_corun[i]) {
      remaining.push_back(i);
    }
  }
  if (trace != nullptr) {
    trace->in_corun = in_corun;
    trace->preference = pref;
    trace->decisions.clear();
  }
  Seconds planner_now = 0.0;

  // Step 3: greedy interference-aware placement. We track the predicted
  // progress of the current job on each device so "when a job finishes,
  // pick the least-interfering next job" resolves in predicted time order.
  Running cpu;
  Running gpu;

  auto own_pref = [](sim::DeviceKind d) {
    return d == sim::DeviceKind::kCpu ? Preference::kCpu : Preference::kGpu;
  };

  auto best_solo_time_on = [&](std::size_t job, sim::DeviceKind d) {
    return view.best_solo_time(job, d);
  };

  auto t_max = [&](std::size_t job, sim::DeviceKind d) {
    return view.t_max(job, d);
  };

  // Estimated backlog of a device in a hypothetical pairing: the pairing's
  // own job plus every unplaced job that will likely land there (preferred
  // jobs fully, non-preferred split). Drives the backlog-weighted frequency
  // split, mirroring the model-driven runtime.
  auto weighted_pair = [&](std::size_t cpu_job, std::size_t gpu_job)
      -> std::optional<model::FreqPair> {
    if (options_.min_degradation_freq) {
      return view.best_pair_min_degradation(cpu_job, gpu_job);
    }
    Seconds b_cpu = t_max(cpu_job, sim::DeviceKind::kCpu);
    Seconds b_gpu = t_max(gpu_job, sim::DeviceKind::kGpu);
    for (const std::size_t k : remaining) {
      if (k == cpu_job || k == gpu_job) continue;
      if (pref[k] == Preference::kCpu) {
        b_cpu += t_max(k, sim::DeviceKind::kCpu);
      } else if (pref[k] == Preference::kGpu) {
        b_gpu += t_max(k, sim::DeviceKind::kGpu);
      } else {
        b_cpu += 0.5 * t_max(k, sim::DeviceKind::kCpu);
        b_gpu += 0.5 * t_max(k, sim::DeviceKind::kGpu);
      }
    }
    return view.best_pair_weighted(
        cpu_job, gpu_job, b_cpu / t_max(cpu_job, sim::DeviceKind::kCpu),
        b_gpu / t_max(gpu_job, sim::DeviceKind::kGpu));
  };

  // Joint prediction for a hypothetical pairing, at the jointly optimized
  // cap-feasible frequency pair — the operating point the model-driven
  // runtime will actually apply (Schedule::model_dvfs).
  auto predict_pair = [&](std::size_t cpu_job, std::size_t gpu_job)
      -> std::optional<model::PairPrediction> {
    const auto pair = weighted_pair(cpu_job, gpu_job);
    if (!pair) return std::nullopt;
    return view.predict(cpu_job, pair->cpu, gpu_job, pair->gpu);
  };

  // Predicted completion of `job` here, degraded against the other device's
  // current occupant.
  auto corun_time_here = [&](std::size_t job, sim::DeviceKind d,
                             const Running& other) -> Seconds {
    if (!other.job) return best_solo_time_on(job, d);
    const bool on_cpu = d == sim::DeviceKind::kCpu;
    const auto p = on_cpu ? predict_pair(job, *other.job)
                          : predict_pair(*other.job, job);
    if (!p) return std::numeric_limits<Seconds>::infinity();
    return on_cpu ? p->cpu_time : p->gpu_time;
  };

  // Anti-starvation "steal gate": pulling a job that prefers the *other*
  // device only helps when finishing it here beats waiting for its home
  // device to drain its backlog and run it natively. Without this guard the
  // literal greedy rule parks a 60 s CPU run of a GPU-preferred job while
  // the GPU idles 20 s later — exactly the pathology the Co-Run Theorem's
  // throughput reasoning is meant to avoid.
  auto steal_is_profitable = [&](std::size_t job, sim::DeviceKind d,
                                 const Running& other) {
    const sim::DeviceKind home = sim::other_device(d);
    Seconds home_backlog = 0.0;
    if (other.job) {
      home_backlog +=
          other.frac * view.standalone_time(*other.job, home, other.level);
    }
    for (const std::size_t k : remaining) {
      if (k == job) continue;
      if (pref[k] == own_pref(home) || pref[k] == Preference::kNone) {
        home_backlog += best_solo_time_on(k, home);
      }
    }
    const Seconds wait_then_run = home_backlog + best_solo_time_on(job, home);
    return corun_time_here(job, d, other) < wait_then_run;
  };

  // Candidate selection: strongest non-empty preference tier for `device`,
  // scored by `score` (lower wins). The other-preference tier is gated.
  auto pick = [&](sim::DeviceKind device, const Running& other,
                  auto&& score) -> std::optional<std::size_t> {
    const Preference own =
        device == sim::DeviceKind::kCpu ? Preference::kCpu : Preference::kGpu;
    const Preference foreign =
        device == sim::DeviceKind::kCpu ? Preference::kGpu : Preference::kCpu;
    for (const Preference tier : {own, Preference::kNone, foreign}) {
      std::optional<std::size_t> best;
      double best_score = std::numeric_limits<double>::infinity();
      for (const std::size_t job : remaining) {
        if (pref[job] != tier) continue;
        if (tier == foreign && !steal_is_profitable(job, device, other)) {
          continue;
        }
        const double s = score(job);
        if (s < best_score) {
          best_score = s;
          best = job;
        }
      }
      if (best) return best;
    }
    return std::nullopt;
  };
  auto take = [&](std::size_t job) {
    remaining.erase(std::find(remaining.begin(), remaining.end(), job));
  };

  // Scores: "longest first" when the machine is otherwise empty (keeps
  // shorter jobs available as gap fillers), least summed degradation when
  // joining a running partner (the paper's interference rule).
  auto longest_first = [&](sim::DeviceKind device) {
    return [&, device](std::size_t job) {
      const Seconds t = best_solo_time_on(job, device);
      return t == std::numeric_limits<Seconds>::infinity() ? t : -t;
    };
  };
  auto least_interference = [&](sim::DeviceKind device, const Running& other) {
    return [&, device](std::size_t job) -> double {
      const bool on_cpu = device == sim::DeviceKind::kCpu;
      const auto p = on_cpu ? predict_pair(job, *other.job)
                            : predict_pair(*other.job, job);
      if (!p) return std::numeric_limits<double>::infinity();
      return p->cpu_degradation + p->gpu_degradation;
    };
  };

  // Assign `job` to `device`. The pairing's frequencies are re-optimized
  // jointly (both running levels update), matching the model-driven runtime.
  // The *stored* per-job level is the best cap-feasible solo level — only a
  // fallback, since model_dvfs re-derives operating points at execution.
  auto assign = [&](std::size_t job, sim::DeviceKind device) {
    Running& own = device == sim::DeviceKind::kCpu ? cpu : gpu;
    Running& other = device == sim::DeviceKind::kCpu ? gpu : cpu;
    take(job);
    own.job = job;
    own.frac = 1.0;
    own.level = view.best_solo_level(job, device).value_or(0);
    double interference = 0.0;
    if (other.job) {
      const bool on_cpu = device == sim::DeviceKind::kCpu;
      const auto pair = on_cpu ? weighted_pair(job, *other.job)
                               : weighted_pair(*other.job, job);
      if (pair) {
        own.level = on_cpu ? pair->cpu : pair->gpu;
        other.level = on_cpu ? pair->gpu : pair->cpu;
      }
      if (const auto p = on_cpu ? predict_pair(job, *other.job)
                                : predict_pair(*other.job, job)) {
        interference = p->cpu_degradation + p->gpu_degradation;
      }
    }
    auto& seq = device == sim::DeviceKind::kCpu ? schedule.cpu : schedule.gpu;
    const sim::FreqLevel stored =
        view.best_solo_level(job, device).value_or(0);
    seq.push_back({job, stored});
    CORUN_TRACE_COUNTER("hcs.placements", 1);
    if (trace != nullptr) {
      trace->decisions.push_back(PairingDecision{
          .device = device,
          .job = job,
          .tier = pref[job],
          .partner = other.job,
          .degradation_sum = interference,
          .level = own.level,
          .predicted_start = planner_now});
    }
  };

  // Seed the GPU with the longest job in its tier order (the paper seeds
  // with the longest GPU-preferred job), then the least-interfering CPU
  // partner with a jointly chosen frequency pair.
  if (const auto seed =
          pick(sim::DeviceKind::kGpu, cpu, longest_first(sim::DeviceKind::kGpu))) {
    assign(*seed, sim::DeviceKind::kGpu);
  }
  if (gpu.job) {
    if (const auto partner = pick(sim::DeviceKind::kCpu, gpu,
                                  least_interference(sim::DeviceKind::kCpu, gpu))) {
      assign(*partner, sim::DeviceKind::kCpu);
    }
  } else if (const auto seed = pick(sim::DeviceKind::kCpu, gpu,
                                    longest_first(sim::DeviceKind::kCpu))) {
    // Degenerate batch with no GPU-eligible candidates: seed the CPU.
    assign(*seed, sim::DeviceKind::kCpu);
  }

  // Greedy loop: advance predicted time to the next completion, refill the
  // freed device, and reconsider an idle device whenever conditions change.
  while (cpu.job || gpu.job) {
    double d_cpu = 0.0;
    double d_gpu = 0.0;
    Seconds t_cpu = 0.0;
    Seconds t_gpu = 0.0;
    if (cpu.job && gpu.job) {
      const auto joint = predict_pair(*cpu.job, *gpu.job);
      const model::PairPrediction p =
          joint ? *joint
                : view.predict(*cpu.job, cpu.level, *gpu.job, gpu.level);
      d_cpu = p.cpu_degradation;
      d_gpu = p.gpu_degradation;
      t_cpu = p.cpu_solo_time;
      t_gpu = p.gpu_solo_time;
    } else if (cpu.job) {
      // Alone: the model-driven runtime raises the survivor to its best
      // cap-feasible solo level.
      t_cpu = best_solo_time_on(*cpu.job, sim::DeviceKind::kCpu);
    } else if (gpu.job) {
      t_gpu = best_solo_time_on(*gpu.job, sim::DeviceKind::kGpu);
    }

    const Seconds cpu_left = cpu.job
                                 ? cpu.frac * t_cpu * (1.0 + d_cpu)
                                 : std::numeric_limits<Seconds>::infinity();
    const Seconds gpu_left = gpu.job
                                 ? gpu.frac * t_gpu * (1.0 + d_gpu)
                                 : std::numeric_limits<Seconds>::infinity();
    const Seconds dt = std::min(cpu_left, gpu_left);
    if (cpu.job) cpu.frac -= dt / (t_cpu * (1.0 + d_cpu));
    if (gpu.job) gpu.frac -= dt / (t_gpu * (1.0 + d_gpu));
    planner_now += dt;

    if (cpu.job && cpu_left <= dt + 1e-12) cpu.job.reset();
    if (gpu.job && gpu_left <= dt + 1e-12) gpu.job.reset();

    // Refill any idle device; the steal gate may legitimately leave a
    // device idle while the other drains its preferred backlog.
    for (const sim::DeviceKind device :
         {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
      Running& own = device == sim::DeviceKind::kCpu ? cpu : gpu;
      Running& other = device == sim::DeviceKind::kCpu ? gpu : cpu;
      if (own.job || remaining.empty()) continue;
      const auto next =
          other.job ? pick(device, other, least_interference(device, other))
                    : pick(device, other, longest_first(device));
      if (next) assign(*next, device);
    }
    // Progress guarantee: if everything is idle but jobs remain (every
    // candidate was gated), force the best job onto its preferred device.
    if (!cpu.job && !gpu.job && !remaining.empty()) {
      const std::size_t job = remaining.front();
      const sim::DeviceKind device =
          pref[job] == Preference::kCpu ? sim::DeviceKind::kCpu
                                        : sim::DeviceKind::kGpu;
      assign(job, device);
    }
  }
  CORUN_CHECK(remaining.empty());

  // S_seq: solo execution on the best device, longest first.
  std::vector<std::size_t> solo_jobs;
  for (std::size_t i = 0; i < n; ++i) {
    if (!in_corun[i]) solo_jobs.push_back(i);
  }
  std::vector<SoloJob> solo;
  for (const std::size_t job : solo_jobs) {
    sim::DeviceKind device = sim::DeviceKind::kCpu;
    Seconds best = std::numeric_limits<Seconds>::infinity();
    sim::FreqLevel level = 0;
    for (const sim::DeviceKind d :
         {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
      const auto lvl = view.best_solo_level(job, d);
      if (!lvl) continue;
      const Seconds t = view.best_solo_time(job, d);
      if (t < best) {
        best = t;
        device = d;
        level = *lvl;
      }
    }
    solo.push_back({job, device, level});
  }
  std::sort(solo.begin(), solo.end(), [&](const SoloJob& a, const SoloJob& b) {
    return view.standalone_time(a.job, a.device, a.level) >
           view.standalone_time(b.job, b.device, b.level);
  });
  schedule.solo = std::move(solo);
  schedule.model_dvfs = true;

  schedule.validate(n);
  // Rendering the plan costs more than some plans: only when it is shown.
  if (log_level() <= LogLevel::kDebug) {
    CORUN_LOG(kDebug) << "HCS plan: "
                      << schedule.to_string(view.ctx().job_names());
  }
  return schedule;
}

}  // namespace corun::sched
