// Sample statistics and open-loop bookkeeping for the benchmark.
//
// Everything here is pure (no clocks, no globals), so the selftest can pin
// the percentile rule and the due-time latency accounting with synthetic
// times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` (p in [0, 100]); 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// The highest of p90 / p99 / p99.9 that leaves at least ten samples above
/// it, or 0 when even p90 does not (fewer than 100 samples).
[[nodiscard]] double highest_tail_percentile(std::size_t n);

/// A timing as the benchmark reports it: the median plus the highest
/// percentile with at least ten samples beyond it, and the sample count.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_p = 0.0;      ///< 0 when there are too few samples for a tail
  double tail_value = 0.0;
};
[[nodiscard]] Summary summarize(const std::vector<double>& samples);

/// "p50 12.3 ms, p99 45.6 ms (n=1234)".
[[nodiscard]] std::string format_summary(const Summary& s,
                                         const std::string& unit);

/// splitmix64: the one RNG the benchmark derives its inputs from, so the
/// inputs of a seed are identical on every platform and standard library.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                   ///< [0, 1)
  std::size_t below(std::size_t n);   ///< [0, n)

 private:
  std::uint64_t state_;
};

/// Poisson arrival offsets (seconds from the loop start) at `rate` per
/// second, strictly before `duration`.
[[nodiscard]] std::vector<double> poisson_due_times(double rate,
                                                    double duration,
                                                    std::uint64_t seed);

/// Zipf(s) popularity over ranks [0, n): rank r has weight 1/(r+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t sample(SplitMix& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Open-loop request accounting. Requests carry fixed due times; the
/// benchmark sends every request already due whenever it is free (natural
/// batching) and reports completions. Latency runs from the due time, so a
/// stall is charged to every request that fell due behind it, and the
/// generator's own lateness is tracked separately: a request the loop
/// slept for and then sent late measures the generator, not the server.
class OpenLoop {
 public:
  explicit OpenLoop(std::vector<double> due) : due_(std::move(due)) {}

  [[nodiscard]] bool done() const noexcept { return next_ == due_.size(); }
  [[nodiscard]] double next_due() const { return due_.at(next_); }

  /// Sends every request due at or before `now`: returns [first, last).
  /// `woke_for_it` says the loop was idle and slept until the first of
  /// them fell due; its lateness `now - due` is then generator lag.
  struct Batch {
    std::size_t first = 0;
    std::size_t last = 0;
  };
  Batch send(double now, bool woke_for_it);

  /// Records the completion of a batch at `now`: one latency per request,
  /// measured from its due time.
  void complete(const Batch& batch, double now);

  [[nodiscard]] const std::vector<double>& latencies() const noexcept {
    return latencies_;
  }
  [[nodiscard]] const std::vector<double>& queue_waits() const noexcept {
    return queue_waits_;
  }
  [[nodiscard]] const std::vector<double>& generator_lags() const noexcept {
    return lags_;
  }
  [[nodiscard]] const std::vector<double>& due() const noexcept {
    return due_;
  }

  /// True when the second half of the requests waited markedly longer
  /// than the first half (median queue wait doubled and above `floor`):
  /// the offered rate outruns the server and the backlog grows.
  [[nodiscard]] bool backlog_growing(double floor) const;

 private:
  std::vector<double> due_;
  std::size_t next_ = 0;
  std::vector<double> latencies_;
  std::vector<double> queue_waits_;  ///< send time - due time
  std::vector<double> lags_;
};

}  // namespace perfbench
