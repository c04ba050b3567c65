// Both runtimes: one executor core (Executor) and the two loops that drive
// it (StaticRun, DynamicRun). Each loop keeps its own feeding rules, so the
// core has no branch on which runtime drives it.
#include "corun/core/runtime/runtime.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "corun/common/check.hpp"
#include "corun/common/rng.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/core/runtime/dynamic.hpp"
#include "corun/core/sched/plan_cache/caching_scheduler.hpp"
#include "corun/profile/online_profiler.hpp"
#include "corun/workload/rodinia.hpp"

namespace corun::runtime {
namespace {

/// Fault times are arbitrary reals but the engine advances in dt ticks; an
/// entry is "due" once the clock has reached it up to this slack.
constexpr Seconds kEps = 1e-9;

/// One job a run knows about: a batch member or, in a dynamic run, an
/// arrival. Queues and reports name a job by its index in the record list,
/// which for a batch member is its batch index.
struct JobRec {
  enum class State { kPending, kRunning, kDone, kCancelled };

  /// Lowered once, when the job joins the run; re-plans and online sampling
  /// add it to their batches as is.
  workload::BatchJob job;
  State state = State::kPending;
  sim::DeviceKind device = sim::DeviceKind::kCpu;
  sim::JobId engine_id = -1;

  [[nodiscard]] const std::string& name() const { return job.instance_name; }
};

/// A device's jobs still to start (ScheduledJob::job is a record index) and
/// the one running now.
struct DeviceQueue {
  std::deque<sched::ScheduledJob> pending;
  std::optional<std::size_t> current;  ///< record index of the running job
  sim::FreqLevel current_level = 0;
};

/// The engine options both runtimes derive from theirs. A governor policy
/// only matters when a cap can be in force at some point; otherwise kNone
/// boots the machine at the ceilings.
template <class Options>
sim::EngineOptions engine_options(const Options& o, bool cap_possible) {
  sim::EngineOptions eo;
  eo.seed = o.seed;
  eo.power_cap = o.cap;
  eo.policy = cap_possible ? o.policy : sim::GovernorPolicy::kNone;
  eo.sample_interval = o.sample_interval;
  eo.record_samples = o.record_power_trace;
  eo.thermal = o.thermal;
  return eo;
}

/// The executor core: what a static and a dynamic run share — the machine,
/// the job records, the device and shared queues, the one operating-point
/// function and the report. Strictly single-threaded — determinism across
/// --jobs counts is by construction, not by synchronization.
class Executor {
 protected:
  Executor(const sim::MachineConfig& config, const sim::EngineOptions& eo,
           const sim::BackendSpec& backend, const std::string& record_path,
           const workload::Batch& batch)
      : config_(config),
        record_path_(record_path),
        machine_(sim::make_machine_model(config, eo, backend,
                                         !record_path.empty())),
        engine_(*machine_) {
    recs_.reserve(batch.size());
    for (const workload::BatchJob& j : batch.jobs()) {
      recs_.push_back(JobRec{.job = j});
    }
  }

  DeviceQueue& cursor(sim::DeviceKind d) {
    return d == sim::DeviceKind::kCpu ? cpu_ : gpu_;
  }

  void launch(sim::DeviceKind d, const sched::ScheduledJob& q) {
    JobRec& rec = recs_[q.job];
    const sim::JobId id = engine_.launch(rec.job.spec, d);
    rec.state = JobRec::State::kRunning;
    rec.device = d;
    rec.engine_id = id;
    id_to_rec_[id] = q.job;
    cursor(d).current = q.job;
    cursor(d).current_level = config_.ladder(d).clamp(q.level);
  }

  /// Starts the device's next job: the shared queue's head when the plan
  /// pulls from one, else the device's own.
  void feed(sim::DeviceKind d) {
    DeviceQueue& cur = cursor(d);
    cur.current.reset();
    auto& from = shared_queue_ ? shared_ : cur.pending;
    if (!from.empty()) {
      const sched::ScheduledJob q = from.front();
      from.pop_front();
      launch(d, q);
    }
  }

  /// The operating point of the running set, re-applied whenever it
  /// changes. A running device requests its job's scheduled level, unless a
  /// model-DVFS plan is in force (`dvfs` non-null): then the predictor
  /// picks the best pair (or solo level) for `cap`, the two devices weighted
  /// by their backlogs — the running job plus the queue, in standalone
  /// seconds at max level — so one pair does not starve the busier
  /// pipeline. The running job counts whole, since the runtimes do not track
  /// partial progress. MakespanEvaluator re-derives the same pair but
  /// deliberately counts only the running job's remaining fraction (and
  /// floors a backlog at 1e-6 s): its piecewise replay knows that fraction
  /// exactly. Idle domains park at their floor; the governor may still clamp
  /// a running domain below its ceiling.
  void set_ceilings(const model::CoRunPredictor* dvfs,
                    std::optional<Watts> cap) {
    sim::FreqLevel cpu_level = cpu_.current ? cpu_.current_level : 0;
    sim::FreqLevel gpu_level = gpu_.current ? gpu_.current_level : 0;
    if (dvfs != nullptr) {
      const model::CoRunPredictor& m = *dvfs;
      auto t_max = [&](std::size_t rec, sim::DeviceKind d) {
        return m.standalone_time(recs_[rec].name(), d,
                                 config_.ladder(d).max_level());
      };
      if (cpu_.current && gpu_.current) {
        auto backlog = [&](sim::DeviceKind d, const DeviceQueue& q) {
          Seconds b = t_max(*q.current, d);
          for (const sched::ScheduledJob& p : q.pending) b += t_max(p.job, d);
          return b;
        };
        const auto pair = m.best_pair_weighted(
            recs_[*cpu_.current].name(), recs_[*gpu_.current].name(), cap,
            backlog(sim::DeviceKind::kCpu, cpu_) /
                t_max(*cpu_.current, sim::DeviceKind::kCpu),
            backlog(sim::DeviceKind::kGpu, gpu_) /
                t_max(*gpu_.current, sim::DeviceKind::kGpu));
        if (pair) {
          cpu_level = pair->cpu;
          gpu_level = pair->gpu;
        }
      } else if (cpu_.current) {
        cpu_level = m.best_solo_level(recs_[*cpu_.current].name(),
                                      sim::DeviceKind::kCpu, cap)
                        .value_or(cpu_level);
      } else if (gpu_.current) {
        gpu_level = m.best_solo_level(recs_[*gpu_.current].name(),
                                      sim::DeviceKind::kGpu, cap)
                        .value_or(gpu_level);
      }
    }
    engine_.set_ceilings(cpu_.current ? cpu_level : 0,
                         gpu_.current ? gpu_level : 0);
  }

  /// Ground truth of every job that ran (cancelled ones excluded) plus the
  /// telemetry; saves the demand trace when the run was recorded.
  void collect(ExecutionReport& out) const {
    for (const sim::JobStats& st : engine_.all_stats()) {
      if (st.cancelled) continue;
      CORUN_CHECK_MSG(st.finished, "job did not finish: " + st.name);
      out.jobs.push_back(JobOutcome{.job = id_to_rec_.at(st.id),
                                    .name = st.name,
                                    .device = st.device,
                                    .start = st.start_time,
                                    .finish = st.finish_time});
      out.makespan = std::max(out.makespan, st.finish_time);
    }
    const sim::Telemetry& telemetry = engine_.telemetry();
    out.energy = telemetry.energy();
    out.avg_power = telemetry.avg_power();
    out.cap_stats = telemetry.cap_stats();
    out.power_trace = telemetry.samples();
    out.thermal_trace = telemetry.thermal_samples();
    out.thermal = telemetry.thermal_stats();
    if (!record_path_.empty()) {
      const auto saved = sim::save_demand_trace(
          static_cast<const sim::RecordingMachine&>(engine_).trace(),
          record_path_);
      CORUN_CHECK_MSG(saved.has_value(),
                      "failed to write demand trace: " + record_path_);
    }
  }

  const sim::MachineConfig& config_;
  const std::string& record_path_;
  std::unique_ptr<sim::Engine> machine_;
  sim::Engine& engine_;

  std::vector<JobRec> recs_;
  std::map<sim::JobId, std::size_t> id_to_rec_;
  DeviceQueue cpu_;
  DeviceQueue gpu_;
  std::deque<sched::ScheduledJob> shared_;
  bool shared_queue_ = false;
};

/// CoRunRuntime's loop: one planned schedule run to completion, with
/// Default's CPU batch launch, feeding in event order and an exclusive solo
/// tail.
class StaticRun : Executor {
 public:
  StaticRun(const sim::MachineConfig& config, const RuntimeOptions& options,
            const workload::Batch& batch)
      : Executor(config, engine_options(options, options.cap.has_value()),
                 options.backend, options.record_trace_path, batch),
        options_(options) {}

  ExecutionReport run(const sched::Schedule& schedule) {
    CORUN_CHECK_MSG(!schedule.model_dvfs || options_.predictor != nullptr,
                    "model_dvfs schedule executed without a predictor");
    const model::CoRunPredictor* dvfs =
        schedule.model_dvfs ? options_.predictor : nullptr;
    shared_queue_ = schedule.shared_queue;
    shared_.assign(schedule.shared.begin(), schedule.shared.end());
    gpu_.pending.assign(schedule.gpu.begin(), schedule.gpu.end());

    // Kick off the co-run phase. GPU first so a shared queue's head goes to
    // the higher-throughput device, as in the evaluator.
    if (schedule.cpu_batch_launch) {
      // Default baseline: the whole CPU partition starts at once and
      // time-shares under the OS scheduler. The last job launched stands for
      // all of them (they share one level request) until the CPU idles.
      for (const sched::ScheduledJob& sj : schedule.cpu) {
        launch(sim::DeviceKind::kCpu, sj);
      }
      feed(sim::DeviceKind::kGpu);
    } else {
      cpu_.pending.assign(schedule.cpu.begin(), schedule.cpu.end());
      feed(sim::DeviceKind::kGpu);
      feed(sim::DeviceKind::kCpu);
    }
    set_ceilings(dvfs, options_.cap);

    // Feed each device as its job completes, in event order.
    while (!engine_.idle()) {
      const auto events = engine_.run_until_event();
      for (const sim::JobEvent& ev : events) {
        if (ev.device == sim::DeviceKind::kGpu) {
          feed(sim::DeviceKind::kGpu);
        } else if (!schedule.cpu_batch_launch) {
          feed(sim::DeviceKind::kCpu);
        } else if (engine_.device_idle(sim::DeviceKind::kCpu)) {
          cpu_.current.reset();
        }
      }
      set_ceilings(dvfs, options_.cap);
    }

    // Solo tail: each job runs with the other device idle.
    for (const sched::SoloJob& s : schedule.solo) {
      launch(s.device, {s.job, s.level});
      (s.device == sim::DeviceKind::kCpu ? gpu_ : cpu_).current.reset();
      set_ceilings(dvfs, options_.cap);
      engine_.run_until_idle();
    }

    ExecutionReport report;
    collect(report);
    return report;
  }

 private:
  const RuntimeOptions& options_;
};

/// The fault plan flattened for execution: dropouts become a begin/end pair.
struct TimelineEntry {
  Seconds time = 0.0;
  sim::FaultEvent event;
  bool dropout_end = false;
};

/// DynamicRuntime's loop: the installed plan runs while the fault timeline
/// applies, each event possibly replanning the jobs not yet started. Idle
/// devices are fed GPU first once a step's events are handled.
class DynamicRun : Executor {
 public:
  DynamicRun(const sim::MachineConfig& config, const DynamicOptions& options,
             const workload::Batch& batch, const profile::ProfileDB& db,
             const model::DegradationGrid& grid, const sim::FaultPlan& plan)
      : Executor(config, dynamic_engine_options(options, plan),
                 options.backend, options.record_trace_path, batch),
        options_(options),
        db_(db),
        grid_(grid) {
    for (const sim::FaultEvent& e : plan.events) {
      timeline_.push_back({e.time, e, false});
      if (e.kind == sim::FaultKind::kMeterDropout) {
        timeline_.push_back({e.time + e.duration, e, true});
      }
    }
    std::stable_sort(timeline_.begin(), timeline_.end(),
                     [](const TimelineEntry& a, const TimelineEntry& b) {
                       return a.time < b.time;
                     });
    if (options_.plan_cache) {
      cache_stats_at_start_ = options_.plan_cache->stats();
    }
    rebuild_predictor();
  }

  DynamicReport run() {
    // Every job the planner will ever reason about needs a profile — even
    // with rescheduling off, model_dvfs ceiling derivation queries the
    // predictor for running names.
    for (std::size_t i = 0; i < recs_.size(); ++i) ensure_profile(i);
    replan(/*count_as_replan=*/false);

    std::size_t ti = 0;
    while (true) {
      while (ti < timeline_.size() &&
             timeline_[ti].time <= engine_.now() + kEps) {
        apply(timeline_[ti]);
        ++ti;
      }
      feed_idle_devices();
      // Feeding an idle machine launches a queued job whenever there is
      // one; a job queued where the installed plan never pulls would
      // otherwise spin this loop forever.
      CORUN_CHECK_MSG(!engine_.idle() || queued_count() == 0,
                      "dynamic run: an idle machine launched none of its "
                      "queued jobs");
      if (engine_.idle()) {
        // Only arrivals can create new work; if none remain, the rest of
        // the timeline is moot.
        const bool arrivals_ahead = std::any_of(
            timeline_.begin() + static_cast<std::ptrdiff_t>(ti),
            timeline_.end(), [](const TimelineEntry& t) {
              return t.event.kind == sim::FaultKind::kArrival;
            });
        if (!arrivals_ahead) {
          for (; ti < timeline_.size(); ++ti) {
            log_skip(timeline_[ti], "batch already complete");
          }
          break;
        }
        // Idle-tick the machine to the next entry (cap moves etc. still
        // apply in order so the arrival runs under the right regime).
        if (timeline_[ti].time > engine_.now() + kEps) {
          engine_.run_for(timeline_[ti].time - engine_.now());
        }
        continue;
      }
      set_ceilings(model_dvfs_ ? predictor_.get() : nullptr, current_cap_);
      std::vector<sim::JobEvent> events;
      if (ti < timeline_.size()) {
        const Seconds limit = timeline_[ti].time - engine_.now();
        if (limit <= kEps) continue;  // due now; apply at the loop top
        events = engine_.run_for_until_event(limit);
      } else {
        events = engine_.run_until_event();
      }
      for (const sim::JobEvent& ev : events) {
        const auto it = id_to_rec_.find(ev.id);
        CORUN_CHECK_MSG(it != id_to_rec_.end(), "completion for unknown job");
        recs_[it->second].state = JobRec::State::kDone;
        if (cursor(ev.device).current == it->second) {
          cursor(ev.device).current.reset();
        }
      }
    }
    return finish();
  }

 private:
  // ---- setup -------------------------------------------------------------

  static sim::EngineOptions dynamic_engine_options(
      const DynamicOptions& options, const sim::FaultPlan& plan) {
    // Uncapped dynamic runs keep kNone, so they boot at the ceilings exactly
    // like CoRunRuntime's.
    const bool cap_possible =
        options.cap.has_value() ||
        std::any_of(plan.events.begin(), plan.events.end(),
                    [](const sim::FaultEvent& e) {
                      return e.kind == sim::FaultKind::kCapSet;
                    });
    sim::EngineOptions eo = engine_options(options, cap_possible);
    eo.cap_window = options.cap_window;
    return eo;
  }

  void rebuild_predictor() {
    predictor_ = std::make_unique<model::CoRunPredictor>(db_, grid_, config_);
  }

  // ---- profile acquisition ladder (rungs 1-3) ----------------------------

  void ensure_profile(std::size_t rec_idx) {
    JobRec& rec = recs_[rec_idx];
    const workload::KernelDescriptor& desc = rec.job.descriptor;
    const auto have = db_.jobs();
    auto profiled = [&](const std::string& name) {
      return std::find(have.begin(), have.end(), name) != have.end();
    };
    if (profiled(rec.name())) return;

    // Rung 2: cross-run scaling from an already-profiled instance of the
    // same program.
    for (const JobRec& other : recs_) {
      if (&other == &rec || other.job.descriptor.name != desc.name ||
          !profiled(other.name())) {
        continue;
      }
      db_.add_scaled_instance(
          other.name(), rec.name(),
          desc.input_scale / other.job.descriptor.input_scale);
      ++report_.cross_run_estimates;
      rebuild_predictor();
      return;
    }
    if (profiled(desc.name) && desc.name != rec.name()) {
      db_.add_scaled_instance(desc.name, rec.name(), desc.input_scale);
      ++report_.cross_run_estimates;
      rebuild_predictor();
      return;
    }

    // Rung 3: online sampling at sparse levels; the simulated seconds the
    // samples would occupy the machine are billed as overhead.
    profile::OnlineProfilerOptions po;
    po.sample_seconds = options_.online_sample_seconds;
    po.seed = options_.seed;
    // The sampler measures hypothetical standalone runs; a demand trace
    // only covers the main machine's recorded launches, so under the
    // replay backend the sampling windows run on the event tier — the
    // same tier a recording run's sampler used, keeping replay
    // byte-identical to the recording.
    po.backend = options_.backend.kind == sim::BackendKind::kReplay
                     ? sim::BackendSpec{}
                     : options_.backend;
    const profile::OnlineProfiler profiler(config_, po);
    workload::Batch one;
    one.add(rec.job);
    const profile::ProfileDB sampled = profiler.profile_batch(one);
    for (const sim::DeviceKind d :
         {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
      for (const sim::FreqLevel level : sampled.levels(rec.name(), d)) {
        db_.insert(rec.name(), d, level, sampled.at(rec.name(), d, level));
      }
    }
    report_.sampling_overhead += profiler.sampling_cost(one);
    ++report_.online_sampled;
    rebuild_predictor();
  }

  // ---- planning (rungs 4-5 live here) ------------------------------------

  std::vector<std::size_t> unstarted() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      if (recs_[i].state == JobRec::State::kPending) out.push_back(i);
    }
    return out;
  }

  void clear_queues(bool shared_queue) {
    cpu_.pending.clear();
    gpu_.pending.clear();
    shared_.clear();
    shared_queue_ = shared_queue;
  }

  void install(const sched::Schedule& plan,
               const std::vector<std::size_t>& subset) {
    clear_queues(plan.shared_queue);
    // Dynamic mode reinterprets two static semantics: the Default
    // baseline's batch launch becomes sequential feeding (arrivals make a
    // one-shot launch meaningless) and solo-tail jobs join their device's
    // queue (exclusivity is best-effort once jobs arrive mid-run).
    for (const sched::ScheduledJob& sj : plan.cpu) {
      cpu_.pending.push_back({subset[sj.job], sj.level});
    }
    for (const sched::ScheduledJob& sj : plan.gpu) {
      gpu_.pending.push_back({subset[sj.job], sj.level});
    }
    for (const sched::ScheduledJob& sj : plan.shared) {
      shared_.push_back({subset[sj.job], sj.level});
    }
    for (const sched::SoloJob& s : plan.solo) {
      cursor(s.device).pending.push_back({subset[s.job], s.level});
    }
    model_dvfs_ = plan.model_dvfs;
  }

  void naive_install(const std::vector<std::size_t>& subset) {
    clear_queues(false);
    model_dvfs_ = false;
    for (const std::size_t rec : subset) naive_place(rec);
    report_.last_rung = PlannerRung::kNaive;
    ++report_.fallback_plans;
  }

  /// Appends one job at the max level: to the shared queue when the
  /// installed plan pulls from one (at the larger ladder's max, as
  /// RandomScheduler requests; each device clamps it), else to the
  /// less-loaded device queue (GPU wins ties — the higher-throughput
  /// device, as in the shared-queue rule).
  void naive_place(std::size_t rec) {
    if (shared_queue_) {
      shared_.push_back({rec, std::max(config_.cpu_ladder.max_level(),
                                       config_.gpu_ladder.max_level())});
      return;
    }
    const std::size_t cpu_load =
        cpu_.pending.size() + (device_busy(sim::DeviceKind::kCpu) ? 1 : 0);
    const std::size_t gpu_load =
        gpu_.pending.size() + (device_busy(sim::DeviceKind::kGpu) ? 1 : 0);
    const sim::DeviceKind d = cpu_load < gpu_load ? sim::DeviceKind::kCpu
                                                  : sim::DeviceKind::kGpu;
    cursor(d).pending.push_back({rec, config_.ladder(d).max_level()});
  }

  void replan(bool count_as_replan) {
    const std::vector<std::size_t> subset = unstarted();
    if (subset.empty()) return;
    CORUN_TRACE_SPAN("dynamic", "dynamic.replan");

    // The planners know jobs by name only; the specs ride along unused.
    workload::Batch sub;
    for (const std::size_t i : subset) sub.add(recs_[i].job);
    sched::SchedulerContext ctx;
    ctx.batch = &sub;
    ctx.predictor = predictor_.get();
    ctx.cap = current_cap_;
    ctx.policy = options_.policy;
    if (count_as_replan) ++report_.replans;

    // The per-replan seed keeps stochastic planners (random) deterministic
    // yet different across replans of one run.
    const std::uint64_t seed = options_.seed + 7919 * (report_.replans + 1);
    auto try_plan = [&](const std::string& name) -> bool {
      const auto scheduler =
          sched::make_cached_scheduler(name, seed, options_.plan_cache);
      if (!scheduler) return false;
      try {
        const sched::Schedule plan = scheduler->plan(ctx);
        plan.validate(sub.size());
        install(plan, subset);
        return true;
      } catch (const ContractViolation&) {
        return false;
      }
    };
    if (try_plan(options_.scheduler)) {
      report_.last_rung = PlannerRung::kConfigured;
      return;
    }
    // Rung 4: the workhorse baseline; rung 5: naive placement.
    if (options_.scheduler != "default" && try_plan("default")) {
      report_.last_rung = PlannerRung::kDefaultFallback;
      ++report_.fallback_plans;
      return;
    }
    naive_install(subset);
  }

  // ---- execution ---------------------------------------------------------

  bool device_busy(sim::DeviceKind d) { return !engine_.device_idle(d); }

  std::size_t queued_count() const {
    return cpu_.pending.size() + gpu_.pending.size() + shared_.size();
  }

  /// GPU first, as everywhere else: a shared queue's head job goes to the
  /// higher-throughput device.
  void feed_idle_devices() {
    if (!device_busy(sim::DeviceKind::kGpu)) feed(sim::DeviceKind::kGpu);
    if (!device_busy(sim::DeviceKind::kCpu)) feed(sim::DeviceKind::kCpu);
  }

  // ---- fault application -------------------------------------------------

  void log_applied(const TimelineEntry& t, bool replanned,
                   std::string detail) {
    report_.log.push_back(AppliedFault{.event = t.event,
                                       .applied_at = engine_.now(),
                                       .replanned = replanned,
                                       .detail = std::move(detail)});
  }
  void log_skip(const TimelineEntry& t, const std::string& why) {
    log_applied(t, false, "skipped: " + why);
  }
  /// Replans when rescheduling is on, then logs the event as applied.
  void replan_and_log(const TimelineEntry& t, std::string detail) {
    if (options_.reschedule) replan(true);
    log_applied(t, options_.reschedule, std::move(detail));
  }

  void apply(const TimelineEntry& t) {
    CORUN_TRACE_COUNTER("dynamic.events", 1);
    switch (t.event.kind) {
      case sim::FaultKind::kArrival:
        CORUN_TRACE_INSTANT("dynamic", "fault.arrival");
        apply_arrival(t);
        break;
      case sim::FaultKind::kCancel:
        CORUN_TRACE_INSTANT("dynamic", "fault.cancel");
        apply_cancel(t);
        break;
      case sim::FaultKind::kCapSet: {
        CORUN_TRACE_INSTANT("dynamic", "fault.cap");
        ++report_.cap_changes;
        current_cap_ = t.event.cap;
        engine_.set_power_cap(current_cap_);
        replan_and_log(t, current_cap_
                              ? "cap=" + std::to_string(*current_cap_) + "W"
                              : "uncapped");
        break;
      }
      case sim::FaultKind::kProfileNoise:
        CORUN_TRACE_INSTANT("dynamic", "fault.noise");
        apply_noise(t);
        break;
      case sim::FaultKind::kMeterDropout:
        CORUN_TRACE_INSTANT("dynamic", "fault.dropout");
        if (!t.dropout_end) ++report_.dropouts;
        engine_.set_meter_dropout(!t.dropout_end);
        log_applied(t, false, t.dropout_end ? "meter restored" : "meter held");
        break;
    }
  }

  void apply_arrival(const TimelineEntry& t) {
    ++report_.arrivals;
    const auto desc = workload::rodinia_by_name(t.event.program);
    if (!desc) {
      log_skip(t, "unknown program '" + t.event.program + "'");
      return;
    }
    workload::KernelDescriptor d = *desc;
    d.input_scale = t.event.input_scale;
    std::string name;
    for (int ordinal = 1;; ++ordinal) {
      name = t.event.program + "#d" + std::to_string(ordinal);
      const auto clash = std::find_if(
          recs_.begin(), recs_.end(),
          [&](const JobRec& r) { return r.name() == name; });
      if (clash == recs_.end()) break;
    }
    // Lower through Batch::add so arrivals get byte-identical specs to
    // batch-born jobs of the same descriptor and seed.
    workload::Batch one;
    one.add(d, t.event.seed, name);
    recs_.push_back(JobRec{.job = one.job(0)});
    ensure_profile(recs_.size() - 1);
    if (options_.reschedule) {
      replan(true);
    } else {
      naive_place(recs_.size() - 1);
    }
    log_applied(t, options_.reschedule, "as " + name);
  }

  void apply_cancel(const TimelineEntry& t) {
    ++report_.cancellations;
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      if (recs_[i].state == JobRec::State::kPending ||
          recs_[i].state == JobRec::State::kRunning) {
        eligible.push_back(i);
      }
    }
    if (eligible.empty()) {
      log_skip(t, "no job to cancel");
      return;
    }
    std::size_t victim;
    if (t.event.target >= 0 &&
        static_cast<std::size_t>(t.event.target) < recs_.size() &&
        std::find(eligible.begin(), eligible.end(),
                  static_cast<std::size_t>(t.event.target)) !=
            eligible.end()) {
      victim = static_cast<std::size_t>(t.event.target);
    } else {
      Rng rng(t.event.seed);
      victim = eligible[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(eligible.size()) - 1))];
    }
    JobRec& rec = recs_[victim];
    if (rec.state == JobRec::State::kRunning) {
      CORUN_CHECK(engine_.cancel(rec.engine_id));
      if (cursor(rec.device).current == victim) {
        cursor(rec.device).current.reset();
      }
    } else {
      auto drop = [&](std::deque<sched::ScheduledJob>& q) {
        q.erase(std::remove_if(q.begin(), q.end(),
                               [&](const sched::ScheduledJob& e) {
                                 return e.job == victim;
                               }),
                q.end());
      };
      drop(cpu_.pending);
      drop(gpu_.pending);
      drop(shared_);
    }
    rec.state = JobRec::State::kCancelled;
    report_.cancelled.push_back(rec.name());
    replan_and_log(t, "evicted " + rec.name());
  }

  void apply_noise(const TimelineEntry& t) {
    ++report_.noise_events;
    // Drift the planner's view of one not-yet-started job; ground truth
    // (the spec the engine executes) is untouched, so the planner now
    // mispredicts that job by exactly `factor`.
    const std::vector<std::size_t> pending = unstarted();
    if (pending.empty()) {
      log_skip(t, "no pending job to drift");
      return;
    }
    Rng rng(t.event.seed);
    const std::size_t victim = pending[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1))];
    db_.scale_job(recs_[victim].name(), t.event.factor);
    rebuild_predictor();
    replan_and_log(t, "drifted " + recs_[victim].name());
  }

  // ---- report ------------------------------------------------------------

  DynamicReport finish() {
    for (const JobRec& rec : recs_) {
      CORUN_CHECK_MSG(rec.state == JobRec::State::kDone ||
                          rec.state == JobRec::State::kCancelled,
                      "dynamic run left job unfinished: " + rec.name());
    }
    CORUN_TRACE_COUNTER("dynamic.replans",
                        static_cast<std::int64_t>(report_.replans));
    CORUN_TRACE_COUNTER("dynamic.arrivals",
                        static_cast<std::int64_t>(report_.arrivals));
    CORUN_TRACE_COUNTER("dynamic.cancellations",
                        static_cast<std::int64_t>(report_.cancellations));
    CORUN_TRACE_COUNTER("dynamic.cap_changes",
                        static_cast<std::int64_t>(report_.cap_changes));
    if (options_.plan_cache) {
      const sched::PlanCacheStats now = options_.plan_cache->stats();
      report_.plan_cache_hits = now.hits - cache_stats_at_start_.hits;
      report_.plan_cache_misses = now.misses - cache_stats_at_start_.misses;
    }
    collect(report_.report);
    return std::move(report_);
  }

  const DynamicOptions& options_;
  profile::ProfileDB db_;          ///< private copy; events mutate it
  model::DegradationGrid grid_;
  std::unique_ptr<model::CoRunPredictor> predictor_;

  std::vector<TimelineEntry> timeline_;
  bool model_dvfs_ = false;
  std::optional<Watts> current_cap_;
  sched::PlanCacheStats cache_stats_at_start_;

  DynamicReport report_;
};

}  // namespace

CoRunRuntime::CoRunRuntime(sim::MachineConfig config, RuntimeOptions options)
    : config_(std::move(config)), options_(options) {}

ExecutionReport CoRunRuntime::execute(const workload::Batch& batch,
                                      const sched::Schedule& schedule) const {
  schedule.validate(batch.size());
  return StaticRun(config_, options_, batch).run(schedule);
}

const char* planner_rung_name(PlannerRung r) noexcept {
  switch (r) {
    case PlannerRung::kConfigured: return "configured";
    case PlannerRung::kDefaultFallback: return "default-fallback";
    case PlannerRung::kNaive: return "naive";
  }
  return "?";
}

std::string DynamicReport::summary() const {
  std::ostringstream os;
  os << report.summary() << '\n';
  os << "  events applied: " << log.size() << " (arrivals " << arrivals
     << ", cancels " << cancellations << ", cap changes " << cap_changes
     << ", noise " << noise_events << ", dropouts " << dropouts << ")\n";
  os << "  replans: " << replans << "  planner rung: "
     << planner_rung_name(last_rung) << "  fallback plans: " << fallback_plans
     << "\n";
  os << "  profile ladder: " << cross_run_estimates << " cross-run, "
     << online_sampled << " online-sampled (overhead "
     << sampling_overhead << " s)\n";
  if (!cancelled.empty()) {
    os << "  cancelled:";
    for (const std::string& name : cancelled) os << ' ' << name;
    os << '\n';
  }
  return os.str();
}

DynamicRuntime::DynamicRuntime(sim::MachineConfig config,
                               DynamicOptions options)
    : config_(std::move(config)), options_(std::move(options)) {}

DynamicReport DynamicRuntime::execute(const workload::Batch& batch,
                                      const profile::ProfileDB& db,
                                      const model::DegradationGrid& grid,
                                      const sim::FaultPlan& plan) const {
  const auto valid = plan.validate();
  CORUN_CHECK_MSG(valid.has_value(), "invalid fault plan");
  return DynamicRun(config_, options_, batch, db, grid, plan).run();
}

}  // namespace corun::runtime
