#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "corun/common/task_pool.hpp"
#include "corun/core/fleet/fleet.hpp"
#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/runtime/dynamic.hpp"
#include "corun/core/runtime/experiment.hpp"
#include "corun/core/runtime/runtime.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/plan_cache/plan_cache.hpp"
#include "corun/core/sched/plan_cache/signature.hpp"
#include "corun/core/sched/registry.hpp"
#include "corun/core/serve/plan_service.hpp"
#include "corun/core/serve/protocol.hpp"
#include "corun/core/serve/server.hpp"
#include "corun/sim/fault_injector.hpp"
#include "corun/sim/machine.hpp"
#include "corun/workload/batch.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using namespace corun;
using trace::Span;

std::uint64_t derive(std::uint64_t seed, std::uint64_t index) {
  return common::task_seed(seed, index);
}

double ms(double seconds) { return seconds * 1000.0; }

/// Builds the model artifacts the way every tool does (runtime's
/// build_artifacts), under a model-layer span: its self time is the
/// degradation-space characterization, and the library's own
/// profile.profile_batch span inside it is the profiling sweep.
runtime::ModelArtifacts traced_artifacts(const workload::Batch& batch,
                                         const runtime::ArtifactOptions& o) {
  runtime::ModelArtifacts artifacts;
  {
    const Span span("bench.model", "model.build_artifacts");
    artifacts = runtime::build_artifacts(sim::ivy_bridge(), batch, o);
  }
  CORUN_TRACE_COUNTER("bench.profile_runs", artifacts.db.size());
  CORUN_TRACE_COUNTER("bench.model_cells", 2 * artifacts.grid.cpu_axis.size() *
                                               artifacts.grid.gpu_axis.size());
  return artifacts;
}

/// Constructs the predictor and forces its lazily built dense tables, so
/// the span covers everything a first plan would otherwise pay.
std::unique_ptr<model::CoRunPredictor> traced_predictor(
    const runtime::ModelArtifacts& artifacts, const workload::Batch& batch) {
  const Span span("bench.model", "model.predictor_build");
  auto predictor = std::make_unique<model::CoRunPredictor>(
      artifacts.db, artifacts.grid, sim::ivy_bridge());
  (void)predictor->standalone_time(batch.job(0).instance_name,
                                   sim::DeviceKind::kCpu, 0);
  return predictor;
}

bool all_finished(const runtime::ExecutionReport& report, std::size_t jobs) {
  if (report.jobs.size() != jobs || !(report.makespan > 0.0)) return false;
  return std::all_of(report.jobs.begin(), report.jobs.end(),
                     [](const runtime::JobOutcome& j) {
                       return j.finish > 0.0 && j.finish >= j.start;
                     });
}

/// The closed loop shared by offline_pipeline and fleet_dynamic.
/// Untraced: op(k, false) for k = 0, 1, ... until `seconds` have passed and
/// at least `min_ops` ran, timing the yardstick after every operation and
/// one set-up repetition after every `setup_every`. The yardstick runs on
/// as many threads as the operation keeps busy: one for offline_pipeline,
/// whose experiments are mostly serial, and every pool thread for
/// fleet_dynamic, whose machines keep the whole pool busy. Traced: every k runs
/// twice on the same inputs, untraced then traced, inside the trace window;
/// the pairs give the tracing overhead, and their simulated outputs must
/// agree.
struct ClosedLoop {
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  Yardstick yardstick;
  double cpu_s = 0.0;   ///< process CPU time over the loop
  double wall_s = 0.0;  ///< host time over the loop
};

template <typename Op>
void closed_loop(ClosedLoop& loop, const Options& options, std::size_t min_ops,
                 std::size_t setup_every, TraceWindow* tw, SetupTimer& setup,
                 Op&& op) {
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  for (std::size_t k = 0;; ++k) {
    if (k >= min_ops &&
        seconds_between(start, Clock::now()) >= options.seconds) {
      break;
    }
    auto t0 = Clock::now();
    op(k, false);
    loop.plain_s.push_back(seconds_between(t0, Clock::now()));
    if (tw == nullptr) {
      (void)loop.yardstick.measure();
      if ((k + 1) % setup_every == 0) setup.between();
      continue;
    }
    tw->arm();
    t0 = Clock::now();
    op(k, true);
    loop.traced_s.push_back(seconds_between(t0, Clock::now()));
    tw->disarm();
  }
  loop.wall_s = seconds_between(start, Clock::now());
  loop.cpu_s = process_cpu_seconds() - cpu0;
}

void report_yardstick(Result& r, const Yardstick& yardstick) {
  r.note("yardstick_s", median(yardstick.times()), "s",
         format_summary(summarize(yardstick.times()), "s") +
             "; op_p50_ms is scaled by " + std::to_string(yardstick.scale()));
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double overhead_pct(const std::vector<double>& plain,
                    const std::vector<double>& traced) {
  const double a = sum(plain);
  return a > 0.0 ? (sum(traced) / a - 1.0) * 100.0 : 0.0;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double busy_frac(const ClosedLoop& loop) {
  const double jobs = static_cast<double>(common::TaskPool::shared().jobs());
  return loop.wall_s > 0.0 ? loop.cpu_s / (loop.wall_s * jobs) : 0.0;
}

/// The e2e metrics. `op_scale` multiplies the median operation time: the
/// closed loops pass their yardstick's scale, plan_serving 1.
void add_common_e2e(Result& r, double setup_s, const std::vector<double>& op_s,
                    double op_scale, double plan_makespan_s) {
  r.add("setup_s", setup_s, "s");
  r.add("op_p50_ms", ms(percentile(op_s, 50.0)) * op_scale, "ms");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("plan_makespan_s", plan_makespan_s, "s");
}

// ---- offline_pipeline -------------------------------------------------------

/// Simulated outputs of one experiment. `values` lists every simulated
/// number in a fixed order; repeated runs of one seed must match exactly.
struct Experiment {
  bool small = true;
  std::vector<double> values;
  double default15 = 0.0;
  double hcs15 = 0.0;
  double err_sum = 0.0;
  int err_n = 0;
  double energy = 0.0;
  std::size_t jobs = 0;
  std::size_t over = 0;
  std::size_t samples = 0;
  double sim_exec_s = 0.0;   ///< simulated seconds executed (static plans)
  double host_exec_s = 0.0;  ///< host seconds spent executing them
};

Experiment run_experiment(std::uint64_t seed, std::size_t k, Checker& chk) {
  const sim::MachineConfig config = sim::ivy_bridge();
  const std::uint64_t es = derive(seed, k);
  Experiment ex;
  ex.small = k % 2 == 0;
  const workload::Batch batch =
      ex.small ? workload::make_batch_8(es) : workload::make_batch_16(es);

  runtime::ArtifactOptions ao;
  ao.seed = es;
  const runtime::ModelArtifacts artifacts = traced_artifacts(batch, ao);
  const auto predictor = traced_predictor(artifacts, batch);

  std::vector<std::string> planners = {"default", "hcs+"};
  if (ex.small) planners.push_back("bnb");
  for (const double cap : {10.0, 15.0, 20.0}) {
    for (const std::string& name : planners) {
      sched::SchedulerContext ctx;
      ctx.batch = &batch;
      ctx.predictor = predictor.get();
      ctx.cap = cap;
      ctx.policy = sim::GovernorPolicy::kGpuBiased;
      auto scheduler = sched::make_scheduler(name, es);
      sched::Schedule schedule;
      {
        const Span span("bench.sched", "sched.plan");
        schedule = scheduler->plan(ctx);
      }
      bool ok = true;
      try {
        schedule.validate(batch.size());
      } catch (const std::exception& e) {
        ok = chk.check(false, name + " produced an invalid schedule: " +
                                  e.what());
      }
      double predicted = 0.0;
      if (ok && name != "default") {
        const Span span("bench.sched", "sched.evaluate");
        predicted = sched::MakespanEvaluator(ctx).makespan(schedule);
      }

      runtime::RuntimeOptions rt;
      rt.cap = cap;
      rt.policy = sim::GovernorPolicy::kGpuBiased;
      rt.seed = es;
      rt.predictor = predictor.get();
      runtime::ExecutionReport report;
      if (ok) {
        const auto t0 = Clock::now();
        const Span span("bench.runtime", "runtime.execute");
        report = runtime::CoRunRuntime(config, rt).execute(batch, schedule);
        ex.host_exec_s += seconds_between(t0, Clock::now());
      }
      ok = ok && chk.check(all_finished(report, batch.size()),
                           name + " left jobs unfinished");
      chk.op(ok, "offline plan+execute " + name);
      if (!ok) continue;

      ex.values.push_back(report.makespan);
      ex.values.push_back(report.energy);
      ex.values.push_back(predicted);
      ex.sim_exec_s += report.makespan;
      ex.energy += report.energy;
      ex.jobs += report.jobs.size();
      ex.over += report.cap_stats.over_cap;
      ex.samples += report.cap_stats.samples;
      if (predicted > 0.0) {
        ex.err_sum += std::fabs(predicted - report.makespan) / report.makespan;
        ++ex.err_n;
      }
      if (cap == 15.0 && name == "default") ex.default15 = report.makespan;
      if (cap == 15.0 && name == "hcs+") ex.hcs15 = report.makespan;
    }
  }

  // One dynamic run: seeded arrivals, cancellations, a cap move, profile
  // noise and a meter dropout, re-planned online with repair and a cache.
  char spec[160];
  std::snprintf(spec, sizeof(spec),
                "random:arrivals=2,cancels=1,caps=1,noise=1,dropouts=1,"
                "horizon=120,seed=%llu",
                static_cast<unsigned long long>(es % 1000000007ULL));
  const auto plan = sim::generate_fault_plan_from_spec(spec);
  bool ok = chk.check(plan.has_value(), "fault plan spec rejected");
  if (ok) {
    runtime::DynamicOptions dyn;
    dyn.cap = 15.0;
    dyn.seed = es;
    dyn.scheduler = ex.small ? "bnb" : "hcs+";  // B&B stops at 12 jobs
    dyn.plan_repair = true;
    dyn.plan_cache = sched::PlanCache::from_spec("mem").value();
    runtime::DynamicReport report;
    {
      const Span span("bench.runtime", "runtime.dynamic");
      report = runtime::DynamicRuntime(config, dyn).execute(
          batch, artifacts.db, artifacts.grid, plan.value());
    }
    const std::size_t expected =
        batch.size() + report.arrivals - report.cancelled.size();
    ok = chk.check(all_finished(report.report, expected),
                   "dynamic run left non-cancelled jobs unfinished");
    ex.values.push_back(report.report.makespan);
    ex.values.push_back(report.report.energy);
    ex.values.push_back(static_cast<double>(report.replans));
    ex.over += report.report.cap_stats.over_cap;
    ex.samples += report.report.cap_stats.samples;
  }
  chk.op(ok, "offline dynamic run");
  return ex;
}

}  // namespace

Result run_offline_pipeline(const Options& options) {
  Result r;
  Checker chk(r);

  // Set-up is the lazy first-use cost a fresh process pays: the pool's
  // threads, allocator arenas and first-touch pages, warmed by artifacts
  // for seeds outside the experiment stream.
  std::uint64_t setups = 0;
  SetupTimer setup([&](bool) {
    const std::uint64_t s = derive(~options.seed, setups++);
    const workload::Batch batch = workload::make_batch_8(s);
    runtime::ArtifactOptions ao;
    ao.seed = s;
    const auto artifacts = traced_artifacts(batch, ao);
    (void)traced_predictor(artifacts, batch);
  });
  setup.before(options.trace);

  // The simulated metrics cover a fixed prefix of experiments (two of each
  // batch size), so they repeat exactly for a seed whatever the host speed.
  constexpr std::size_t kSimPrefix = 4;
  std::vector<Experiment> experiments;
  std::vector<Experiment> traced_experiments;
  TraceWindow tw;
  if (options.trace) tw.open();
  ClosedLoop loop;
  closed_loop(loop, options, kSimPrefix, 16, options.trace ? &tw : nullptr,
              setup, [&](std::size_t k, bool traced) {
                Experiment ex = run_experiment(options.seed, k, chk);
                (traced ? traced_experiments : experiments)
                    .push_back(std::move(ex));
              });

  // Determinism: the traced twin of every experiment, or a rerun of the
  // first one, must reproduce its simulated outputs exactly.
  if (options.trace) {
    for (std::size_t k = 0; k < traced_experiments.size(); ++k) {
      chk.op(traced_experiments[k].values == experiments[k].values,
             "traced experiment diverged from its untraced twin");
    }
  } else {
    const Experiment again = run_experiment(options.seed, 0, chk);
    chk.op(again.values == experiments[0].values,
           "experiment 0 did not repeat exactly");
  }

  std::vector<double> small_s;
  std::vector<double> large_s;
  for (std::size_t k = 0; k < loop.plain_s.size(); ++k) {
    (k % 2 == 0 ? small_s : large_s).push_back(loop.plain_s[k]);
  }
  // One operation is an 8-job plus a 16-job experiment, so the sample is
  // not bimodal.
  std::vector<double> pair_s;
  for (std::size_t k = 0; k + 1 < loop.plain_s.size(); k += 2) {
    pair_s.push_back(loop.plain_s[k] + loop.plain_s[k + 1]);
  }

  double log_speedup = 0.0;
  double err_sum = 0.0;
  int err_n = 0;
  double energy = 0.0;
  std::size_t jobs = 0;
  std::size_t over = 0;
  std::size_t samples = 0;
  double hcs15 = 0.0;
  for (std::size_t k = 0; k < kSimPrefix; ++k) {
    const Experiment& ex = experiments[k];
    log_speedup += std::log(ex.default15 / ex.hcs15);
    err_sum += ex.err_sum;
    err_n += ex.err_n;
    energy += ex.energy;
    jobs += ex.jobs;
    over += ex.over;
    samples += ex.samples;
    hcs15 += ex.hcs15;
  }
  const double n = static_cast<double>(kSimPrefix);

  r.line("offline_pipeline: " + std::to_string(loop.plain_s.size()) +
         " experiments in " + std::to_string(loop.wall_s) + " s");
  r.note("experiment_s (8 jobs)", percentile(small_s, 50.0), "s",
         format_summary(summarize(small_s), "s"));
  r.note("experiment_s (16 jobs)", percentile(large_s, 50.0), "s",
         format_summary(summarize(large_s), "s"));
  r.note("experiment_s_p50", percentile(loop.plain_s, 50.0), "s",
         format_summary(summarize(loop.plain_s), "s"));
  r.note("experiment_s_p90", percentile(loop.plain_s, 90.0), "s");

  r.note("corun_speedup", std::exp(log_speedup / n), "x",
         "simulated, Default_G / HCS+ at 15 W, geomean");
  r.note("model_error_pct", err_n > 0 ? 100.0 * err_sum / err_n : 0.0, "%",
         "simulated, |predicted - executed| / executed");
  r.note("energy_j_per_job", jobs > 0 ? energy / static_cast<double>(jobs) : 0.0,
         "J", "simulated");
  r.note("cap_over_pct",
         samples > 0 ? 100.0 * static_cast<double>(over) /
                           static_cast<double>(samples)
                     : 0.0,
         "%", "simulated");

  const double setup_s = setup.finish(r);
  if (!options.trace) {
    report_yardstick(r, loop.yardstick);
    add_common_e2e(r, setup_s, pair_s, loop.yardstick.scale(), hcs15 / n);
    return r;
  }

  tw.close(sum(loop.traced_s));
  add_layer_metrics(tw, r);
  double sim_s = 0.0;
  double host_s = 0.0;
  for (const Experiment& ex : traced_experiments) {
    sim_s += ex.sim_exec_s;
    host_s += ex.host_exec_s;
  }
  r.add("runtime.sim_s_per_host_s", host_s > 0.0 ? sim_s / host_s : 0.0,
        "ratio");
  r.add("task_pool.busy_frac", busy_frac(loop), "ratio");
  r.add("trace.overhead_pct", overhead_pct(loop.plain_s, loop.traced_s), "%");
  tw.write(options.trace_out, r);
  return r;
}

// ---- plan_serving -----------------------------------------------------------

namespace {

/// Offered rates (requests per host second), calibrated once on a 4-thread
/// host and then frozen: low, middle (the reported latencies) and high.
constexpr double kRates[3] = {50.0, 100.0, 500.0};
constexpr double kPhaseShare[3] = {0.3, 0.5, 0.2};
constexpr std::size_t kPoolSize = 6144;  // > the default 512x8 cache
constexpr double kZipfS = 1.2;
constexpr double kLatencyLimitMs = 50.0;
constexpr std::uint64_t kServedBatchSeed = 42;
constexpr std::size_t kWarmKeys = 512;
constexpr std::size_t kWarmChunk = 128;

struct RequestKey {
  std::vector<std::string> jobs;
  double cap = 15.0;
  std::string scheduler;
};

/// The request keys, most popular first. Job count and scheduler follow
/// the popularity rank round-robin (6..12 jobs; every fifth key hcs+, the
/// rest bnb), so the few keys that dominate a Zipf stream have the same mix
/// for every seed; the seed picks each key's jobs and cap.
std::vector<RequestKey> make_request_pool(const workload::Batch& batch,
                                          std::uint64_t seed) {
  SplitMix rng(seed);
  std::vector<RequestKey> pool(kPoolSize);
  for (std::size_t rank = 0; rank < pool.size(); ++rank) {
    RequestKey& key = pool[rank];
    std::vector<std::string> names;
    for (const auto& job : batch.jobs()) names.push_back(job.instance_name);
    const std::size_t k = 6 + rank % 7;
    for (std::size_t i = 0; i < k; ++i) {
      std::swap(names[i], names[i + rng.below(names.size() - i)]);
      key.jobs.push_back(names[i]);
    }
    key.cap = 10.0 + 0.5 * static_cast<double>(rng.below(21));
    key.scheduler = rank % 5 == 4 ? "hcs+" : "bnb";
  }
  return pool;
}

serve::PlanRequest to_request(const RequestKey& key, std::uint64_t seq) {
  serve::PlanRequest req;
  req.seq = seq;
  req.cap = key.cap;
  req.scheduler = key.scheduler;
  req.jobs = key.jobs;
  return req;
}

struct Phase {
  double rate = 0.0;
  OpenLoop loop{{}};
  std::vector<std::size_t> key;       ///< pool index per request
  std::vector<std::string> body;      ///< ok body per request
  std::size_t chunks = 0;
  sched::PlanCacheStats cache;        ///< plan-cache activity of the phase
  double busy_s = 0.0;                ///< serving + wire host time
  double wire_s = 0.0;
};

Phase run_phase(serve::ServeSession& session,
                const std::vector<RequestKey>& pool, const Zipf& zipf,
                double rate, double duration, std::uint64_t seed,
                Checker& chk) {
  Phase ph;
  ph.rate = rate;
  ph.loop = OpenLoop(poisson_due_times(rate, duration, seed));
  SplitMix rng(derive(seed, 1));
  const std::size_t n = ph.loop.due().size();
  for (std::size_t i = 0; i < n; ++i) ph.key.push_back(zipf.sample(rng));
  ph.body.resize(n);

  const auto t0 = Clock::now();
  auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  while (!ph.loop.done()) {
    bool woke = false;
    if (seconds_between(t0, Clock::now()) < ph.loop.next_due()) {
      std::this_thread::sleep_until(at(ph.loop.next_due()));
      woke = true;
    }
    const auto busy0 = Clock::now();
    const OpenLoop::Batch batch =
        ph.loop.send(seconds_between(t0, busy0), woke);

    std::vector<serve::TimedRequest> chunk;
    {
      const Span span("bench.serve", "serve.wire");
      for (std::size_t i = batch.first; i < batch.last; ++i) {
        auto parsed = serve::request_from_payload(
            serve::request_to_payload(to_request(pool[ph.key[i]], i)));
        if (!chk.check(parsed.has_value(), "request did not round-trip")) {
          continue;
        }
        chunk.push_back({std::move(parsed).value(), at(ph.loop.due()[i])});
      }
    }
    const auto wire0 = Clock::now();
    std::vector<serve::PlanResponse> responses;
    {
      const Span span("bench.serve", "serve.serve_chunk");
      responses = session.serve_chunk(std::move(chunk));
    }
    const auto wire1 = Clock::now();
    {
      const Span span("bench.serve", "serve.wire");
      for (const serve::PlanResponse& response : responses) {
        auto back = serve::response_from_payload(
            serve::response_to_payload(response));
        const bool ok = back.has_value() &&
                        back.value().status == serve::ResponseStatus::kOk &&
                        back.value().seq >= batch.first &&
                        back.value().seq < batch.last;
        chk.op(ok, "request not answered ok: " +
                       (back.has_value() ? back.value().message
                                         : back.error().message));
        if (ok) ph.body[back.value().seq] = std::move(back).value().body;
      }
    }
    const auto done = Clock::now();
    ph.loop.complete(batch, seconds_between(t0, done));
    ++ph.chunks;
    ph.busy_s += seconds_between(busy0, done);
    ph.wire_s += seconds_between(busy0, wire0) + seconds_between(wire1, done);
  }
  return ph;
}

double predicted_makespan(const std::string& body) {
  const std::string tag = "predicted makespan: ";
  const std::size_t pos = body.find(tag);
  return pos == std::string::npos
             ? 0.0
             : std::strtod(body.c_str() + pos + tag.size(), nullptr);
}

struct ServingPass {
  std::vector<Phase> phases;
  double wall_s = 0.0;  ///< host time of the three phases
};

/// One pass of the workload: a fresh daemon warms its cache, then serves
/// the three phases. `tw`, when given, is armed for the phases only.
ServingPass serving_pass(const workload::Batch& batch,
                         const model::CoRunPredictor& predictor,
                         const std::vector<RequestKey>& pool, double seconds,
                         std::uint64_t seed, TraceWindow* tw, Checker& chk) {
  // The daemon's configuration: a default memory cache shared by every
  // request of the run.
  const auto cache = sched::PlanCache::from_spec("mem").value();
  const serve::PlanService service(batch, predictor, cache);
  serve::ServeSession session(service, serve::ServeOptions{});

  // A long-running daemon has planned its popular requests before: plan
  // the most popular keys once, untimed, so the phases do not start from
  // an empty cache.
  for (std::size_t first = 0; first < kWarmKeys; first += kWarmChunk) {
    std::vector<serve::TimedRequest> chunk;
    for (std::size_t i = first; i < std::min(kWarmKeys, first + kWarmChunk);
         ++i) {
      chunk.push_back({to_request(pool[i], i), Clock::now()});
    }
    for (const serve::PlanResponse& response :
         session.serve_chunk(std::move(chunk))) {
      chk.op(response.status == serve::ResponseStatus::kOk,
             "cache warm-up request failed: " + response.message);
    }
  }

  const Zipf zipf(pool.size(), kZipfS);
  ServingPass pass;
  if (tw != nullptr) tw->arm();
  const auto start = Clock::now();
  for (int p = 0; p < 3; ++p) {
    const sched::PlanCacheStats before = cache->stats();
    pass.phases.push_back(run_phase(session, pool, zipf, kRates[p],
                                    seconds * kPhaseShare[p],
                                    derive(seed, 100 + p), chk));
    const sched::PlanCacheStats after = cache->stats();
    sched::PlanCacheStats& d = pass.phases.back().cache;
    d.hits = after.hits - before.hits;
    d.misses = after.misses - before.misses;
    d.evictions = after.evictions - before.evictions;
  }
  pass.wall_s = seconds_between(start, Clock::now());
  if (tw != nullptr) tw->disarm();
  return pass;
}

/// Output checks of a pass: every response body of one request key is
/// identical, and a seeded sample of keys matches a direct, uncached
/// PlanService::plan byte for byte.
void check_bodies(const ServingPass& pass, const std::vector<RequestKey>& pool,
                  const serve::PlanService& direct, std::uint64_t seed,
                  Checker& chk) {
  std::map<std::size_t, const std::string*> first;
  for (const Phase& ph : pass.phases) {
    for (std::size_t i = 0; i < ph.key.size(); ++i) {
      if (ph.body[i].empty()) continue;
      auto [it, fresh] = first.emplace(ph.key[i], &ph.body[i]);
      if (!fresh) {
        chk.op(*it->second == ph.body[i],
               "two responses to one request differ");
      }
    }
  }
  std::vector<std::size_t> keys;
  for (const auto& [key, body] : first) keys.push_back(key);
  SplitMix rng(derive(seed, 7));
  for (int s = 0; s < 24 && !keys.empty(); ++s) {
    const std::size_t key = keys[rng.below(keys.size())];
    const auto planned = direct.plan(to_request(pool[key], 0));
    chk.op(planned.has_value() && planned.value().text == *first[key],
           "served body differs from a direct PlanService::plan");
  }
}

}  // namespace

Result run_plan_serving(const Options& options) {
  Result r;
  Checker chk(r);

  // One daemon serves one machine's artifacts: the paper's 16-job batch at
  // its reference seed. The workload seed drives the traffic.
  struct Served {
    workload::Batch batch;
    runtime::ModelArtifacts artifacts;
    std::unique_ptr<model::CoRunPredictor> predictor;
  };
  std::unique_ptr<Served> served;
  SetupTimer setup([&](bool keep) {
    auto m = std::make_unique<Served>();  // the predictor points into it
    m->batch = workload::make_batch_16(kServedBatchSeed);
    runtime::ArtifactOptions ao;
    ao.seed = kServedBatchSeed;
    m->artifacts = traced_artifacts(m->batch, ao);
    m->predictor = traced_predictor(m->artifacts, m->batch);
    if (keep) served = std::move(m);
  });
  setup.before(options.trace);
  const workload::Batch& batch = served->batch;
  const model::CoRunPredictor* predictor = served->predictor.get();
  const std::vector<RequestKey> pool =
      make_request_pool(batch, derive(options.seed, 3));
  const serve::PlanService direct(batch, *predictor, nullptr);

  TraceWindow tw;
  const double cpu0 = process_cpu_seconds();
  const auto wall0 = Clock::now();
  if (options.trace) tw.open();
  // Traced runs serve the same request streams twice at half length each:
  // untraced, then traced, so their busy time gives the tracing overhead.
  const double pass_seconds = options.trace ? options.seconds / 2 : options.seconds;
  const ServingPass plain = serving_pass(batch, *predictor, pool,
                                         pass_seconds, options.seed, nullptr,
                                         chk);
  std::optional<ServingPass> traced;
  if (options.trace) {
    traced = serving_pass(batch, *predictor, pool, pass_seconds,
                          options.seed, &tw, chk);
  }
  const double wall = seconds_between(wall0, Clock::now());
  const double cpu = process_cpu_seconds() - cpu0;

  check_bodies(plain, pool, direct, options.seed, chk);
  if (traced) check_bodies(*traced, pool, direct, options.seed, chk);

  const char* labels[3] = {"low", "middle", "high"};
  double max_rps = 0.0;
  for (int p = 0; p < 3; ++p) {
    const Phase& ph = plain.phases[p];
    std::vector<double> lat_ms;
    for (const double s : ph.loop.latencies()) lat_ms.push_back(ms(s));
    const Summary s = summarize(lat_ms);
    const bool growing = ph.loop.backlog_growing(0.001);
    const bool meets = s.tail_p > 0.0 && s.tail_value <= kLatencyLimitMs &&
                       !growing && percentile(lat_ms, 99.0) <= kLatencyLimitMs;
    if (meets) max_rps = std::max(max_rps, ph.rate);
    char detail[320];
    std::snprintf(detail, sizeof(detail),
                  "%s rate: %s, %llu hits / %llu misses / %llu evictions%s",
                  labels[p], format_summary(s, "ms").c_str(),
                  static_cast<unsigned long long>(ph.cache.hits),
                  static_cast<unsigned long long>(ph.cache.misses),
                  static_cast<unsigned long long>(ph.cache.evictions),
                  growing ? ", backlog growing" : "");
    r.note(std::string("plan_latency_ms@") + std::to_string(int(ph.rate)),
           s.p50, "ms", detail);
  }
  const Phase& mid = plain.phases[1];
  std::vector<double> mid_s = mid.loop.latencies();
  std::vector<double> mid_ms;
  for (const double s : mid_s) mid_ms.push_back(ms(s));
  r.note("plan_p50_ms", percentile(mid_ms, 50.0), "ms", "middle rate");
  r.note("plan_p99_ms", percentile(mid_ms, 99.0), "ms", "middle rate");
  r.note("plan_max_rps", max_rps, "req/s",
         "highest offered rate with p99 <= 50 ms and no growing backlog");

  // Predicted plan quality over the distinct requests of the middle rate
  // (each key once, so a popular key does not dominate): the stream is
  // fixed by the seed and the run length, and every request is answered,
  // so the mean repeats exactly.
  std::map<std::size_t, double> per_key;
  for (std::size_t i = 0; i < mid.key.size(); ++i) {
    per_key.emplace(mid.key[i], predicted_makespan(mid.body[i]));
  }
  double makespan = 0.0;
  for (const auto& [key, value] : per_key) makespan += value;
  makespan = per_key.empty() ? 0.0
                             : makespan / static_cast<double>(per_key.size());
  r.note("plan_makespan_s", makespan, "s",
         "predicted, mean over the distinct middle-rate requests");

  const double setup_s = setup.finish(r);
  if (!options.trace) {
    add_common_e2e(r, setup_s, mid_s, 1.0, makespan);
    return r;
  }

  tw.close(traced->wall_s);
  add_layer_metrics(tw, r);

  // Queueing, batching and wire costs of the traced pass.
  std::vector<double> waits;
  std::vector<double> lags;
  std::size_t requests = 0;
  std::size_t chunks = 0;
  double wire_s = 0.0;
  double busy_traced = 0.0;
  for (const Phase& ph : traced->phases) {
    waits.insert(waits.end(), ph.loop.queue_waits().begin(),
                 ph.loop.queue_waits().end());
    lags.insert(lags.end(), ph.loop.generator_lags().begin(),
                ph.loop.generator_lags().end());
    requests += ph.key.size();
    chunks += ph.chunks;
    wire_s += ph.wire_s;
    busy_traced += ph.busy_s;
  }
  double busy_plain = 0.0;
  std::size_t requests_plain = 0;
  for (const Phase& ph : plain.phases) {
    busy_plain += ph.busy_s;
    requests_plain += ph.key.size();
  }
  r.add("serve.queue_wait_ms", ms(mean(waits)), "ms");
  r.add("serve.chunk_size",
        chunks > 0 ? static_cast<double>(requests) / chunks : 0.0, "count");
  r.add("serve.wire_us",
        requests > 0 ? wire_s * 1e6 / static_cast<double>(requests) : 0.0,
        "us");
  r.add("gen.lag_ms", ms(mean(lags)), "ms");
  r.add("task_pool.busy_frac",
        cpu / (wall * static_cast<double>(common::TaskPool::shared().jobs())),
        "ratio");
  r.add("trace.overhead_pct",
        requests > 0 && requests_plain > 0 && busy_plain > 0.0
            ? ((busy_traced / requests) / (busy_plain / requests_plain) - 1.0) *
                  100.0
            : 0.0,
        "%");

  // Hit against cold on one set of artifacts: a sample of distinct
  // requests planned through a fresh cache, then again as exact hits. The
  // signature timings separate the two older hit/cold ratios: the serving
  // path builds signatures from digests cached per predictor, a bare
  // CachingScheduler re-digests the machine, the grid and every profile
  // row on each request.
  {
    const serve::PlanService fresh(batch, *predictor,
                                   sched::PlanCache::from_spec("mem").value());
    const sched::SignatureBuilder builder(*predictor);
    SplitMix rng(derive(options.seed, 11));
    std::vector<double> cold_ms;
    std::vector<double> hit_ms;
    std::vector<double> built_us;
    std::vector<double> full_us;
    for (int i = 0; i < 16; ++i) {
      const RequestKey& key = pool[rng.below(pool.size())];
      const serve::PlanRequest req = to_request(key, 0);
      auto t0 = Clock::now();
      const auto cold = fresh.plan(req);
      cold_ms.push_back(ms(seconds_between(t0, Clock::now())));
      t0 = Clock::now();
      const auto hit = fresh.plan(req);
      hit_ms.push_back(ms(seconds_between(t0, Clock::now())));
      chk.op(cold.has_value() && hit.has_value() &&
                 cold.value().text == hit.value().text,
             "exact hit differs from the cold plan");

      workload::Batch sub;
      for (const std::string& name : key.jobs) {
        for (const auto& job : batch.jobs()) {
          if (job.instance_name == name) {
            sub.add(job.descriptor, job.seed, job.instance_name);
          }
        }
      }
      sched::SchedulerContext ctx;
      ctx.batch = &sub;
      ctx.predictor = predictor;
      ctx.cap = key.cap;
      t0 = Clock::now();
      const auto a = builder.build(ctx, key.scheduler, 0);
      built_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      t0 = Clock::now();
      const auto b = sched::make_signature(ctx, key.scheduler, 0);
      full_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
      chk.op(a.canonical == b.canonical, "signature builder disagrees");
    }
    r.add("serve.hit_ms", median(hit_ms), "ms");
    r.add("serve.cold_ms", median(cold_ms), "ms");
    r.add("plan_cache.signature_us", median(built_us), "us");
    r.add("plan_cache.full_signature_us", median(full_us), "us");
  }
  tw.write(options.trace_out, r);
  return r;
}

// ---- fleet_dynamic ----------------------------------------------------------

namespace {

constexpr std::size_t kMachines = 256;

struct FleetRun {
  std::vector<double> values;  ///< simulated outputs, compared exactly
  double makespan = 0.0;
  std::size_t redivisions = 0;
  std::size_t replans = 0;
  std::size_t steady_over = 0;
  std::size_t samples = 0;
};

FleetRun run_fleet_once(const runtime::ModelArtifacts& artifacts,
                        std::uint64_t seed, std::size_t k, Checker& chk) {
  const std::uint64_t fs = derive(seed, 1000 + k);
  fleet::FleetOptions fo;
  fo.machines = kMachines;
  fo.global_cap = 11.0 * static_cast<double>(kMachines);
  fo.strategy = "demand";
  fo.scheduler = "hcs+";
  fo.jobs_per_machine = 3;
  fo.jobs_spread = 3;
  fo.seed = fs;
  fo.plan_cache = sched::PlanCache::from_spec("mem").value();
  char spec[160];
  std::snprintf(spec, sizeof(spec),
                "random:dropouts=2,caps=2,waves=2,horizon=120,wave_jobs=32,"
                "seed=%llu",
                static_cast<unsigned long long>(fs % 1000000007ULL));
  const auto plan = fleet::generate_fleet_plan_from_spec(spec, kMachines);
  FleetRun run;
  if (!chk.check(plan.has_value(), "fleet plan spec rejected")) {
    chk.op(false, "fleet run");
    return run;
  }
  const auto report = [&] {
    const Span span("bench.fleet", "fleet.execute");
    return fleet::Fleet(sim::ivy_bridge(), fo).execute(plan.value(),
                                                       artifacts);
  }();
  bool ok = chk.check(report.has_value(),
                      "fleet run failed: " + (report.has_value()
                                                  ? std::string()
                                                  : report.error().message));
  if (ok) {
    const fleet::FleetReport& rep = report.value();
    ok = chk.check(rep.steady_over_cap == 0,
                   "steady-state fleet cap violations") &&
         chk.check(rep.finished_jobs + rep.lost_jobs == rep.total_jobs,
                   "fleet jobs neither finished nor lost");
    run.makespan = rep.fleet_makespan;
    run.redivisions = rep.redivisions;
    run.replans = rep.replans;
    run.steady_over = rep.steady_over_cap;
    run.samples = rep.power_samples;
    run.values = {rep.fleet_makespan,
                  static_cast<double>(rep.finished_jobs),
                  static_cast<double>(rep.over_cap),
                  static_cast<double>(rep.power_samples),
                  static_cast<double>(rep.replans),
                  rep.worst_overshoot};
  }
  chk.op(ok, "fleet run");
  return run;
}

}  // namespace

Result run_fleet_dynamic(const Options& options) {
  Result r;
  Checker chk(r);

  // The corun-fleet construction: one anchor instance per pool program,
  // profiled at sparse levels on the analytic backend.
  runtime::ModelArtifacts artifacts;
  SetupTimer setup([&](bool keep) {
    const auto reference =
        fleet::make_fleet_reference_batch(fleet::default_fleet_programs());
    runtime::ArtifactOptions ao;
    ao.seed = options.seed;
    ao.backend.kind = sim::BackendKind::kAnalytic;
    ao.backend.replay_path.clear();
    ao.cpu_levels = {0, 5, 10, 15};
    ao.gpu_levels = {0, 3, 6, 9};
    ao.grid_axis = {0.0, 4.0, 8.0, 11.0};
    runtime::ModelArtifacts built = traced_artifacts(reference.value(), ao);
    if (keep) artifacts = std::move(built);
  });
  setup.before(options.trace);

  constexpr std::size_t kSimPrefix = 16;
  std::vector<FleetRun> runs;
  std::vector<FleetRun> traced_runs;
  TraceWindow tw;
  if (options.trace) tw.open();
  ClosedLoop loop;
  loop.yardstick = Yardstick(common::TaskPool::shared().jobs());
  closed_loop(loop, options, kSimPrefix, 4, options.trace ? &tw : nullptr,
              setup, [&](std::size_t k, bool traced) {
                FleetRun run = run_fleet_once(artifacts, options.seed, k, chk);
                (traced ? traced_runs : runs).push_back(std::move(run));
              });
  if (options.trace) {
    for (std::size_t k = 0; k < traced_runs.size(); ++k) {
      chk.op(traced_runs[k].values == runs[k].values,
             "traced fleet run diverged from its untraced twin");
    }
  } else {
    const FleetRun again = run_fleet_once(artifacts, options.seed, 0, chk);
    chk.op(again.values == runs[0].values, "fleet run 0 did not repeat exactly");
  }

  double makespan = 0.0;
  for (std::size_t k = 0; k < kSimPrefix; ++k) makespan += runs[k].makespan;
  makespan /= static_cast<double>(kSimPrefix);
  const double p50 = percentile(loop.plain_s, 50.0);
  r.line("fleet_dynamic: " + std::to_string(loop.plain_s.size()) +
         " fleet runs of " + std::to_string(kMachines) + " machines");
  r.note("fleet_run_s", p50, "s",
         format_summary(summarize(loop.plain_s), "s"));
  r.note("fleet_machines_per_s",
         p50 > 0.0 ? static_cast<double>(kMachines) / p50 : 0.0, "1/s");
  r.note("fleet_makespan_s", makespan, "s", "simulated, first 16 runs");
  r.note("cap_over_pct", 0.0, "%",
         "simulated steady-state fleet samples over the cap (checked zero)");

  const double setup_s = setup.finish(r);
  if (!options.trace) {
    report_yardstick(r, loop.yardstick);
    add_common_e2e(r, setup_s, loop.plain_s, loop.yardstick.scale(), makespan);
    return r;
  }

  tw.close(sum(loop.traced_s));
  add_layer_metrics(tw, r);
  std::size_t redivisions = 0;
  std::size_t replans = 0;
  for (const FleetRun& run : traced_runs) {
    redivisions += run.redivisions;
    replans += run.replans;
  }
  r.add("fleet.redivisions", static_cast<double>(redivisions), "count");
  r.add("fleet.replans", static_cast<double>(replans), "count");
  r.add("task_pool.busy_frac", busy_frac(loop), "ratio");
  r.add("trace.overhead_pct", overhead_pct(loop.plain_s, loop.traced_s), "%");
  tw.write(options.trace_out, r);
  return r;
}

}  // namespace perfbench
