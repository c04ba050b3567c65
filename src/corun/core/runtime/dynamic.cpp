#include "corun/core/runtime/dynamic.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include "corun/common/check.hpp"
#include "corun/common/rng.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/sched/branch_and_bound.hpp"
#include "corun/core/sched/plan_cache/caching_scheduler.hpp"
#include "corun/core/sched/registry.hpp"
#include "corun/profile/online_profiler.hpp"
#include "corun/workload/rodinia.hpp"

namespace corun::runtime {

namespace {

/// Fault times are arbitrary reals but the engine advances in dt ticks; an
/// entry is "due" once the clock has reached it up to this slack.
constexpr Seconds kEps = 1e-9;

/// One job the dynamic runtime knows about — initial batch members and
/// arrivals alike.
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

/// The fault plan flattened for execution: dropouts become a begin/end pair.
struct TimelineEntry {
  Seconds time = 0.0;
  sim::FaultEvent event;
  bool dropout_end = false;
};

struct QueuedJob {
  std::size_t rec = 0;  ///< index into the global JobRec list
  sim::FreqLevel level = 0;
};

struct DeviceQueue {
  std::deque<QueuedJob> pending;
  std::optional<std::size_t> current;  ///< rec index of the running job
  sim::FreqLevel current_level = 0;
};

/// Single-use executor: all mutable state of one DynamicRuntime::execute
/// call. Strictly single-threaded — determinism across --jobs counts is by
/// construction, not by synchronization.
class Executor {
 public:
  Executor(const sim::MachineConfig& config, const DynamicOptions& options,
           const workload::Batch& batch, const profile::ProfileDB& db,
           const model::DegradationGrid& grid, const sim::FaultPlan& plan)
      : config_(config),
        options_(options),
        db_(db),
        grid_(grid),
        machine_(make_machine(plan)),
        engine_(*machine_) {
    for (const workload::BatchJob& j : batch.jobs()) {
      recs_.push_back(JobRec{.job = j});
    }
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
      const bool work = !engine_.idle() || queued_count() > 0;
      if (!work) {
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
      apply_ceilings();
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
    return collect();
  }

 private:
  // ---- setup -------------------------------------------------------------

  sim::EngineOptions engine_options(const sim::FaultPlan& plan) const {
    // A governor policy only matters when a cap can be in force at some
    // point; otherwise keep kNone so uncapped dynamic runs boot at the
    // ceilings exactly like CoRunRuntime's.
    const bool cap_possible =
        options_.cap.has_value() ||
        std::any_of(plan.events.begin(), plan.events.end(),
                    [](const sim::FaultEvent& e) {
                      return e.kind == sim::FaultKind::kCapSet;
                    });
    sim::EngineOptions eo;
    eo.mode = options_.engine_mode;
    eo.seed = options_.seed;
    eo.power_cap = options_.cap;
    eo.policy = cap_possible ? options_.policy : sim::GovernorPolicy::kNone;
    eo.sample_interval = options_.sample_interval;
    eo.record_samples = options_.record_power_trace;
    eo.cap_window = options_.cap_window;
    eo.thermal = options_.thermal;
    return eo;
  }

  /// Machine construction through the backend factory; a requested
  /// demand-trace recording substitutes the recorder decorator (same
  /// engine-mode coherence rules as make_machine_model).
  [[nodiscard]] std::unique_ptr<sim::MachineModel> make_machine(
      const sim::FaultPlan& plan) {
    if (!options_.record_trace_path.empty()) {
      sim::EngineOptions eo = engine_options(plan);
      if (options_.backend.kind == sim::BackendKind::kAnalytic) {
        eo.mode = sim::EngineMode::kAnalytic;
      } else if (eo.mode == sim::EngineMode::kAnalytic) {
        eo.mode = sim::EngineMode::kEvent;
      }
      auto rec = std::make_unique<sim::RecordingMachine>(config_, eo);
      recorder_ = rec.get();
      return rec;
    }
    return sim::make_machine_model(config_, engine_options(plan),
                                   options_.backend);
  }

  void rebuild_predictor() {
    predictor_ =
        std::make_unique<model::CoRunPredictor>(db_, grid_, config_);
  }

  // ---- profile acquisition ladder (rungs 1-3) ----------------------------

  void ensure_profile(std::size_t rec_idx) {
    JobRec& rec = recs_[rec_idx];
    const workload::KernelDescriptor& desc = rec.job.descriptor;
    const auto have = db_.jobs();
    if (std::find(have.begin(), have.end(), rec.name()) != have.end()) return;

    // Rung 2: cross-run scaling from an already-profiled instance of the
    // same program.
    for (const JobRec& other : recs_) {
      if (&other == &rec || other.job.descriptor.name != desc.name) continue;
      if (std::find(have.begin(), have.end(), other.name()) == have.end()) {
        continue;
      }
      db_.add_scaled_instance(
          other.name(), rec.name(),
          desc.input_scale / other.job.descriptor.input_scale);
      ++report_.cross_run_estimates;
      rebuild_predictor();
      return;
    }
    if (std::find(have.begin(), have.end(), desc.name) != have.end() &&
        desc.name != rec.name()) {
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
    po.engine_mode = options_.engine_mode;
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

  void install(const sched::Schedule& plan,
               const std::vector<std::size_t>& subset) {
    cpu_.pending.clear();
    gpu_.pending.clear();
    shared_.clear();
    shared_queue_ = plan.shared_queue;
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
      (s.device == sim::DeviceKind::kCpu ? cpu_ : gpu_)
          .pending.push_back({subset[s.job], s.level});
    }
    model_dvfs_ = plan.model_dvfs;
  }

  void naive_install(const std::vector<std::size_t>& subset) {
    cpu_.pending.clear();
    gpu_.pending.clear();
    shared_.clear();
    shared_queue_ = false;
    model_dvfs_ = false;
    for (const std::size_t rec : subset) naive_place(rec);
    report_.last_rung = PlannerRung::kNaive;
    ++report_.fallback_plans;
  }

  /// Appends one job to the less-loaded device queue at the max level (GPU
  /// wins ties — the higher-throughput device, as in the shared-queue rule).
  void naive_place(std::size_t rec) {
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
        // Per-plan search telemetry: budget truncation (the run's
        // determinism guarantees are off the table when set). An exact
        // cache hit skips the search entirely, leaving the inner planner's
        // accessors describing a *previous* request — so they are only read
        // when the search actually ran.
        const sched::Scheduler* algo = scheduler.get();
        bool searched = true;
        if (const auto* caching =
                dynamic_cast<const sched::CachingScheduler*>(algo)) {
          searched = !caching->last_exact_hit();
          algo = caching->inner();
        }
        if (const auto* bnb =
                dynamic_cast<const sched::BranchAndBoundScheduler*>(algo);
            bnb != nullptr && searched && bnb->exhausted_budget()) {
          ++report_.bnb_budget_exhausted;
        }
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

  DeviceQueue& cursor(sim::DeviceKind d) {
    return d == sim::DeviceKind::kCpu ? cpu_ : gpu_;
  }
  bool device_busy(sim::DeviceKind d) { return !engine_.device_idle(d); }

  std::size_t queued_count() const {
    return cpu_.pending.size() + gpu_.pending.size() + shared_.size();
  }

  void launch(sim::DeviceKind d, const QueuedJob& q) {
    JobRec& rec = recs_[q.rec];
    const sim::JobId id = engine_.launch(rec.job.spec, d);
    rec.state = JobRec::State::kRunning;
    rec.device = d;
    rec.engine_id = id;
    id_to_rec_[id] = q.rec;
    cursor(d).current = q.rec;
    cursor(d).current_level = config_.ladder(d).clamp(q.level);
  }

  void feed(sim::DeviceKind d) {
    DeviceQueue& cur = cursor(d);
    cur.current.reset();
    if (shared_queue_) {
      if (!shared_.empty()) {
        const QueuedJob q = shared_.front();
        shared_.pop_front();
        launch(d, q);
      }
    } else if (!cur.pending.empty()) {
      const QueuedJob q = cur.pending.front();
      cur.pending.pop_front();
      launch(d, q);
    }
  }

  /// GPU first, as everywhere else: a shared queue's head job goes to the
  /// higher-throughput device.
  void feed_idle_devices() {
    if (!device_busy(sim::DeviceKind::kGpu)) feed(sim::DeviceKind::kGpu);
    if (!device_busy(sim::DeviceKind::kCpu)) feed(sim::DeviceKind::kCpu);
  }

  void apply_ceilings() {
    sim::FreqLevel cpu_level = cpu_.current ? cpu_.current_level : 0;
    sim::FreqLevel gpu_level = gpu_.current ? gpu_.current_level : 0;
    if (model_dvfs_) {
      // Same backlog-weighted re-derivation as CoRunRuntime::execute.
      const model::CoRunPredictor& m = *predictor_;
      auto t_max = [&](std::size_t rec, sim::DeviceKind d) {
        return m.standalone_time(recs_[rec].name(), d,
                                 config_.ladder(d).max_level());
      };
      if (cpu_.current && gpu_.current) {
        auto backlog = [&](sim::DeviceKind d, std::size_t current,
                           const std::deque<QueuedJob>& pending) {
          Seconds b = t_max(current, d);
          for (const QueuedJob& q : pending) b += t_max(q.rec, d);
          return b;
        };
        const Seconds b_cpu =
            backlog(sim::DeviceKind::kCpu, *cpu_.current, cpu_.pending);
        const Seconds b_gpu =
            backlog(sim::DeviceKind::kGpu, *gpu_.current, gpu_.pending);
        const auto pair = m.best_pair_weighted(
            recs_[*cpu_.current].name(), recs_[*gpu_.current].name(),
            current_cap_, b_cpu / t_max(*cpu_.current, sim::DeviceKind::kCpu),
            b_gpu / t_max(*gpu_.current, sim::DeviceKind::kGpu));
        if (pair) {
          cpu_level = pair->cpu;
          gpu_level = pair->gpu;
        }
      } else if (cpu_.current) {
        cpu_level = m.best_solo_level(recs_[*cpu_.current].name(),
                                      sim::DeviceKind::kCpu, current_cap_)
                        .value_or(cpu_level);
      } else if (gpu_.current) {
        gpu_level = m.best_solo_level(recs_[*gpu_.current].name(),
                                      sim::DeviceKind::kGpu, current_cap_)
                        .value_or(gpu_level);
      }
    }
    engine_.set_ceilings(cpu_.current ? cpu_level : 0,
                         gpu_.current ? gpu_level : 0);
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

  void apply(const TimelineEntry& t) {
    CORUN_TRACE_COUNTER("dynamic.events", 1);
    switch (t.event.kind) {
      case sim::FaultKind::kArrival: {
        CORUN_TRACE_INSTANT("dynamic", "fault.arrival");
        apply_arrival(t);
        break;
      }
      case sim::FaultKind::kCancel: {
        CORUN_TRACE_INSTANT("dynamic", "fault.cancel");
        apply_cancel(t);
        break;
      }
      case sim::FaultKind::kCapSet: {
        CORUN_TRACE_INSTANT("dynamic", "fault.cap");
        ++report_.cap_changes;
        current_cap_ = t.event.cap;
        engine_.set_power_cap(current_cap_);
        const bool re = options_.reschedule;
        if (re) replan(true);
        log_applied(t, re,
                    current_cap_
                        ? "cap=" + std::to_string(*current_cap_) + "W"
                        : "uncapped");
        break;
      }
      case sim::FaultKind::kProfileNoise: {
        CORUN_TRACE_INSTANT("dynamic", "fault.noise");
        apply_noise(t);
        break;
      }
      case sim::FaultKind::kMeterDropout: {
        CORUN_TRACE_INSTANT("dynamic", "fault.dropout");
        if (!t.dropout_end) ++report_.dropouts;
        engine_.set_meter_dropout(!t.dropout_end);
        log_applied(t, false, t.dropout_end ? "meter restored" : "meter held");
        break;
      }
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
      auto drop = [&](std::deque<QueuedJob>& q) {
        q.erase(std::remove_if(
                    q.begin(), q.end(),
                    [&](const QueuedJob& e) { return e.rec == victim; }),
                q.end());
      };
      drop(cpu_.pending);
      drop(gpu_.pending);
      drop(shared_);
    }
    rec.state = JobRec::State::kCancelled;
    report_.cancelled.push_back(rec.name());
    const bool re = options_.reschedule;
    if (re) replan(true);
    log_applied(t, re, "evicted " + rec.name());
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
    const bool re = options_.reschedule;
    if (re) replan(true);
    log_applied(t, re, "drifted " + recs_[victim].name());
  }

  // ---- report ------------------------------------------------------------

  DynamicReport collect() {
    for (const JobRec& rec : recs_) {
      CORUN_CHECK_MSG(rec.state == JobRec::State::kDone ||
                          rec.state == JobRec::State::kCancelled,
                      "dynamic run left job unfinished: " + rec.name());
    }
    ExecutionReport& out = report_.report;
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
    if (recorder_ != nullptr) {
      const auto saved = sim::save_demand_trace(recorder_->trace(),
                                                options_.record_trace_path);
      CORUN_CHECK_MSG(saved.has_value(),
                      "failed to write demand trace: " +
                          options_.record_trace_path);
    }
    return std::move(report_);
  }

  const sim::MachineConfig& config_;
  const DynamicOptions& options_;
  profile::ProfileDB db_;          ///< private copy; events mutate it
  model::DegradationGrid grid_;
  std::unique_ptr<model::CoRunPredictor> predictor_;
  sim::RecordingMachine* recorder_ = nullptr;  ///< set when recording
  std::unique_ptr<sim::MachineModel> machine_;
  sim::MachineModel& engine_;

  std::vector<JobRec> recs_;
  std::vector<TimelineEntry> timeline_;
  std::map<sim::JobId, std::size_t> id_to_rec_;

  DeviceQueue cpu_;
  DeviceQueue gpu_;
  std::deque<QueuedJob> shared_;
  bool shared_queue_ = false;
  bool model_dvfs_ = false;
  std::optional<Watts> current_cap_;
  sched::PlanCacheStats cache_stats_at_start_;

  DynamicReport report_;
};

}  // namespace

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
  Executor executor(config_, options_, batch, db, grid, plan);
  return executor.run();
}

}  // namespace corun::runtime
