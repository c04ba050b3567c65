// Shared plumbing of the three workloads: options, the result every run
// prints, output checks, host clocks, and the traced-run bookkeeping that
// turns spans and counters into per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "corun/common/trace/trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome JSON path of the traced run ("" = none)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool any_failure = false;           ///< some output check failed
  std::vector<std::string> failures;  ///< first few failed checks
  std::vector<Metric> metrics;        ///< what the last JSON line carries
  std::vector<std::string> report;    ///< human-readable lines printed first

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void line(const std::string& text) { report.push_back(text); }
  /// Reports a named figure that is printed but not in the JSON.
  void note(const std::string& name, double value, const std::string& unit,
            const std::string& detail = "");
};

/// Counts one operation and records whether its output checks passed.
class Checker {
 public:
  explicit Checker(Result& result) : result_(&result) {}
  /// One operation attempted; `ok` false counts it failed.
  void op(bool ok, const std::string& what);
  /// A check inside an operation that was already counted.
  bool check(bool ok, const std::string& what);

 private:
  Result* result_;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU seconds (user + system) so far.
[[nodiscard]] double process_cpu_seconds();

/// Peak resident set size of the process, MB.
[[nodiscard]] double peak_rss_mb();

/// A fixed amount of host work per thread that uses none of the corun code:
/// floating-point math and allocator churn, a few ms. The shared host this
/// benchmark was written on ran 15-20% faster or slower from one minute to
/// the next, for the corun code and the yardstick alike. The yardstick is
/// timed after every set-up and after every closed-loop operation, and
/// those times are scaled by the host speed it saw.
class Yardstick {
 public:
  /// `threads` copies of the work run at once, one per thread.
  explicit Yardstick(std::size_t threads = 1) : threads_(threads) {}

  /// Runs the work once on every thread and records the harmonic mean of
  /// their host seconds.
  double measure();
  /// kYardstickReferenceS over the median of the recorded times: what an
  /// operation time is multiplied by to read as if the host had run at its
  /// reference speed (1 when nothing was recorded).
  [[nodiscard]] double scale() const;
  [[nodiscard]] const std::vector<double>& times() const noexcept {
    return times_;
  }

 private:
  std::size_t threads_;
  std::vector<double> times_;
  double sink_ = 0.0;  ///< keeps the work observable
};

/// The one-thread yardstick's median time on the 4-vCPU Xeon host the
/// benchmark was calibrated on, frozen.
constexpr double kYardstickReferenceS = 0.0065;

/// Set-up timing. A workload sets up a few times before its measured loop
/// (keeping the last set-up, which a traced run traces), a few more times
/// after it, and on the closed loops now and then inside it, all but the
/// kept one discarded: the median then samples the host over the whole run,
/// not only in its first fraction of a second. A yardstick follows every
/// timed set-up.
class SetupTimer {
 public:
  /// `setup(keep)` builds the workload's inputs; only a `keep` call may
  /// replace the ones the run uses.
  explicit SetupTimer(std::function<void(bool keep)> setup)
      : setup_(std::move(setup)) {}

  void before(bool traced);
  /// One discarded set-up inside the measured loop.
  void between() { once(false); }
  /// Runs the trailing set-ups and reports them all; returns the median
  /// set-up time scaled by the yardstick.
  double finish(Result& result);

 private:
  void once(bool keep);

  std::function<void(bool)> setup_;
  std::vector<double> times_;
  Yardstick yardstick_;
};

/// Traced-run bookkeeping. The run traces one set-up repetition, then a
/// measured window; counters are attributed to the window only (they are
/// snapshot when it opens), spans of both feed the per-call times, and
/// self-time shares are taken over the window.
class TraceWindow {
 public:
  /// Call on the main thread before the traced set-up repetition.
  static void start_session();

  /// Opens the measured window (tracing stays off until `arm()`).
  void open();
  void arm() { corun::trace::set_enabled(true); }
  void disarm() { corun::trace::set_enabled(false); }
  /// Closes the window; `traced_wall_s` is the host time spent in traced
  /// operations inside it (the share denominator).
  void close(double traced_wall_s);

  /// Counter total accumulated inside the window.
  [[nodiscard]] double counter(const std::string& name) const;
  /// Mean duration (ms) of spans named `name`, over the whole session.
  [[nodiscard]] double mean_span_ms(const std::string& name) const;
  /// Mean self time (ms) of spans named `name`, over the whole session.
  [[nodiscard]] double mean_self_ms(const std::string& name) const;
  /// Self-time share of the traced wall time for one layer.
  [[nodiscard]] double share(const std::string& layer) const;
  /// Sum of every layer's share: how much of the traced wall time the
  /// spans account for.
  [[nodiscard]] double coverage() const;
  [[nodiscard]] std::size_t events() const noexcept { return events_; }

  /// Writes the session as Chrome JSON (no-op for an empty path).
  void write(const std::string& path, Result& result) const;

 private:
  std::map<std::string, double> before_;
  std::map<std::string, double> totals_;
  std::string json_;
  struct Agg {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Agg> by_name_;
  std::map<std::string, double> layer_self_us_;
  double traced_wall_us_ = 0.0;
  double window_start_us_ = 0.0;
  std::size_t events_ = 0;
};

/// Engine / B&B / plan-cache / dynamic-runtime counters and the span-based
/// per-layer metrics every workload reports in its traced run.
void add_layer_metrics(const TraceWindow& tw, Result& result);

}  // namespace perfbench
