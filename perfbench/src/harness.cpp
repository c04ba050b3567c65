#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "stats.hpp"
#include "trace_analysis.hpp"

namespace perfbench {

namespace {

std::map<std::string, double> counter_snapshot() {
  std::map<std::string, double> out;
  for (const auto& c : corun::trace::counter_totals()) out[c.name] = c.total;
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void Result::note(const std::string& name, double value,
                  const std::string& unit, const std::string& detail) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-22s %14.6g %-6s %s", name.c_str(),
                value, unit.c_str(), detail.c_str());
  report.emplace_back(buf);
}

void Checker::op(bool ok, const std::string& what) {
  ++result_->attempted;
  if (!ok) {
    ++result_->failed;
    result_->any_failure = true;
    if (result_->failures.size() < 8) result_->failures.push_back(what);
  }
}

bool Checker::check(bool ok, const std::string& what) {
  if (!ok) {
    result_->any_failure = true;
    if (result_->failures.size() < 8) result_->failures.push_back(what);
  }
  return ok;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// The yardstick's work on the calling thread; returns its host seconds.
double yardstick_work(double& sink) {
  const auto t0 = Clock::now();
  double acc = 0.0;
  for (int i = 1; i <= 200000; ++i) {
    const double x = static_cast<double>(i) * 1e-5;
    acc += std::exp(-x) * std::sqrt(x) + std::log1p(x);
  }
  std::map<std::uint64_t, std::vector<double>> churn;
  SplitMix rng(7);
  for (int i = 0; i < 10000; ++i) {
    churn[rng.below(4096)].assign(1 + rng.below(32), acc);
    if (i % 3 == 0) churn.erase(rng.below(4096));
  }
  acc += static_cast<double>(churn.size());
  sink += acc;
  return seconds_between(t0, Clock::now());
}

}  // namespace

double Yardstick::measure() {
  std::vector<double> seconds(threads_);
  std::vector<double> sinks(threads_);
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < threads_; ++t) {
    helpers.emplace_back([&, t] { seconds[t] = yardstick_work(sinks[t]); });
  }
  seconds[0] = yardstick_work(sinks[0]);
  for (std::thread& h : helpers) h.join();
  // Harmonic mean: the time one piece of work takes at the threads'
  // combined rate, which is what a load-balanced fan-out sees.
  double rate = 0.0;
  for (std::size_t t = 0; t < threads_; ++t) {
    rate += 1.0 / seconds[t];
    sink_ += sinks[t];
  }
  times_.push_back(static_cast<double>(threads_) / rate);
  return times_.back();
}

double Yardstick::scale() const {
  return times_.empty() ? 1.0 : kYardstickReferenceS / median(times_);
}

namespace {
constexpr int kSetupsBefore = 3;
constexpr int kSetupsAfter = 4;
constexpr double kWarmUpSeconds = 1.0;
}  // namespace

void SetupTimer::once(bool keep) {
  const auto t0 = Clock::now();
  {
    const corun::trace::Span span("bench.setup", "setup");
    setup_(keep);
  }
  times_.push_back(seconds_between(t0, Clock::now()));
  (void)yardstick_.measure();
}

void SetupTimer::before(bool traced) {
  // Untimed warm-up: a fresh process first pays for page faults, allocator
  // growth and idle vCPUs, which made its first set-ups up to 4x slower
  // than later ones on a shared host.
  const auto start = Clock::now();
  do {
    setup_(false);
  } while (seconds_between(start, Clock::now()) < kWarmUpSeconds);
  for (int rep = 0; rep < kSetupsBefore; ++rep) {
    const bool last = rep == kSetupsBefore - 1;
    if (traced && last) TraceWindow::start_session();
    once(last);
    if (traced && last) corun::trace::set_enabled(false);
  }
}

double SetupTimer::finish(Result& result) {
  for (int rep = 0; rep < kSetupsAfter; ++rep) once(false);
  std::string line = "set-up repetitions (s):";
  for (const double t : times_) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4f", t);
    line += buf;
  }
  result.line(line);
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "set-up yardstick: median %.4f s, setup_s is scaled by %.6f",
                median(yardstick_.times()), yardstick_.scale());
  result.line(buf);
  return median(times_) * yardstick_.scale();
}

void TraceWindow::start_session() {
  corun::trace::reset();
  corun::trace::set_enabled(true);
  (void)corun::trace::lane_id();  // the main thread is lane 0
}

void TraceWindow::open() {
  corun::trace::set_enabled(false);
  before_ = counter_snapshot();
  window_start_us_ =
      static_cast<double>(corun::trace::detail::now_ns()) / 1000.0;
}

void TraceWindow::close(double traced_wall_s) {
  corun::trace::set_enabled(false);
  traced_wall_us_ = traced_wall_s * 1e6;
  totals_ = counter_snapshot();
  events_ = corun::trace::event_count();
  json_ = corun::trace::to_json();

  const std::vector<SpanRecord> spans = parse_chrome_spans(json_);
  const std::vector<double> self = self_times_us(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Agg& a = by_name_[spans[i].name];
    ++a.count;
    a.total_us += spans[i].dur_us;
    a.self_us += self[i];
  }
  layer_self_us_ = layer_self_us(spans, self, 0, window_start_us_, 1e300);
  // The set-up marker span is outside every window by construction.
  layer_self_us_.erase("setup");
}

double TraceWindow::counter(const std::string& name) const {
  const auto after = totals_.find(name);
  if (after == totals_.end()) return 0.0;
  const auto b = before_.find(name);
  return after->second - (b == before_.end() ? 0.0 : b->second);
}

double TraceWindow::mean_span_ms(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end() || it->second.count == 0) return 0.0;
  return it->second.total_us / 1000.0 / static_cast<double>(it->second.count);
}

double TraceWindow::mean_self_ms(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end() || it->second.count == 0) return 0.0;
  return it->second.self_us / 1000.0 / static_cast<double>(it->second.count);
}

double TraceWindow::share(const std::string& layer) const {
  const auto it = layer_self_us_.find(layer);
  return it == layer_self_us_.end() ? 0.0
                                    : ratio(it->second, traced_wall_us_);
}

double TraceWindow::coverage() const {
  double total = 0.0;
  for (const auto& [layer, us] : layer_self_us_) total += us;
  return ratio(total, traced_wall_us_);
}

void TraceWindow::write(const std::string& path, Result& result) const {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json_;
  if (out) {
    result.line("trace written to " + path);
  } else {
    result.line("warning: could not write trace to " + path);
  }
}

void add_layer_metrics(const TraceWindow& tw, Result& r) {
  // profile: the library's profile_batch span, inside build_artifacts.
  r.add("profile.batch_ms", tw.mean_span_ms("profile.profile_batch"), "ms");
  r.add("profile.runs", tw.counter("bench.profile_runs"), "count");
  r.add("profile.share", tw.share("profile"), "ratio");

  // model: build_artifacts minus its profiling child is characterization.
  r.add("model.characterize_ms", tw.mean_self_ms("model.build_artifacts"),
        "ms");
  r.add("model.cells", tw.counter("bench.model_cells"), "count");
  r.add("model.predictor_build_ms", tw.mean_span_ms("model.predictor_build"),
        "ms");
  r.add("backend.analytic_hits", tw.counter("backend.analytic_hits"), "count");
  r.add("model.share", tw.share("model"), "ratio");

  const double ticks = tw.counter("engine.ticks");
  const double horizons = tw.counter("engine.horizons");
  r.add("sim.ticks", ticks, "count");
  r.add("sim.horizons", horizons, "count");
  r.add("sim.replayed_ticks", tw.counter("engine.replayed_ticks"), "count");
  r.add("sim.ticks_per_horizon", ratio(ticks, horizons), "ratio");
  r.add("sim.cap_violation_ticks", tw.counter("engine.cap_violation_ticks"),
        "count");

  const double nodes = tw.counter("bnb.nodes");
  r.add("sched.hcs_plan_ms", tw.mean_span_ms("hcs.plan"), "ms");
  r.add("sched.bnb_plan_ms", tw.mean_span_ms("bnb.plan"), "ms");
  r.add("sched.bnb_nodes", nodes, "count");
  r.add("sched.bnb_prune_ratio", ratio(tw.counter("bnb.pruned"), nodes),
        "ratio");
  r.add("sched.bnb_leaves", tw.counter("bnb.leaves"), "count");
  r.add("sched.share", tw.share("sched"), "ratio");

  const double hits = tw.counter("plan_cache.hits");
  const double misses = tw.counter("plan_cache.misses");
  r.add("plan_cache.hits", hits, "count");
  r.add("plan_cache.hit_ratio", ratio(hits, hits + misses), "ratio");
  r.add("plan_cache.warm_ratio", ratio(tw.counter("plan_cache.warm_hits"),
                                       misses),
        "ratio");
  r.add("plan_cache.stores", tw.counter("plan_cache.stores"), "count");
  r.add("plan_cache.evictions", tw.counter("plan_cache.evictions"), "count");

  r.add("runtime.execute_ms", tw.mean_span_ms("runtime.execute"), "ms");
  r.add("runtime.dynamic_ms", tw.mean_span_ms("runtime.dynamic"), "ms");
  r.add("runtime.replans", tw.counter("dynamic.replans"), "count");
  r.add("runtime.repair_fallback_ratio",
        ratio(tw.counter("bnb.repair_fallbacks"), tw.counter("bnb.repairs")),
        "ratio");
  r.add("runtime.share", tw.share("runtime"), "ratio");

  r.add("serve.share", tw.share("serve"), "ratio");
  r.add("fleet.execute_ms", tw.mean_span_ms("fleet.execute"), "ms");
  r.add("fleet.share", tw.share("fleet"), "ratio");

  r.add("trace_events", static_cast<double>(tw.events()), "count");
  r.add("trace.self_coverage", tw.coverage(), "ratio");
}

}  // namespace perfbench
