#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // Nearest rank: the smallest sample with at least p% of samples at or
  // below it. The epsilon keeps p*n that are whole numbers from rounding up.
  const double rank = std::ceil(p / 100.0 * n - 1e-9);
  const std::size_t index =
      rank <= 1.0 ? 0 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
  return samples[index];
}

double highest_tail_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {90.0, 99.0, 99.9}) {
    const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
    if (beyond >= 10.0 - 1e-9) best = p;
  }
  return best;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  s.p50 = median(samples);
  s.tail_p = highest_tail_percentile(s.n);
  if (s.tail_p > 0.0) s.tail_value = percentile(samples, s.tail_p);
  return s;
}

std::string format_summary(const Summary& s, const std::string& unit) {
  char buf[160];
  if (s.tail_p > 0.0) {
    std::snprintf(buf, sizeof(buf), "p50 %.4g %s, p%g %.4g %s (n=%zu)", s.p50,
                  unit.c_str(), s.tail_p, s.tail_value, unit.c_str(), s.n);
  } else {
    std::snprintf(buf, sizeof(buf), "p50 %.4g %s, no tail (n=%zu)", s.p50,
                  unit.c_str(), s.n);
  }
  return buf;
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t SplitMix::below(std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
}

std::vector<double> poisson_due_times(double rate, double duration,
                                      std::uint64_t seed) {
  if (rate <= 0.0) throw std::invalid_argument("rate must be positive");
  SplitMix rng(seed);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate;
    if (t >= duration) break;
    due.push_back(t);
  }
  return due;
}

Zipf::Zipf(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument("Zipf over an empty range");
  cdf_.reserve(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(SplitMix& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                  cdf_.size() - 1);
}

OpenLoop::Batch OpenLoop::send(double now, bool woke_for_it) {
  Batch batch{next_, next_};
  while (batch.last < due_.size() && due_[batch.last] <= now) {
    queue_waits_.push_back(now - due_[batch.last]);
    ++batch.last;
  }
  if (woke_for_it && batch.last > batch.first) {
    lags_.push_back(now - due_[batch.first]);
  }
  next_ = batch.last;
  return batch;
}

void OpenLoop::complete(const Batch& batch, double now) {
  if (batch.first != latencies_.size()) {
    throw std::logic_error("open-loop batches must complete in send order");
  }
  for (std::size_t i = batch.first; i < batch.last; ++i) {
    latencies_.push_back(now - due_[i]);
  }
}

bool OpenLoop::backlog_growing(double floor) const {
  const std::size_t n = queue_waits_.size();
  if (n < 4) return false;
  const std::vector<double> first(queue_waits_.begin(),
                                  queue_waits_.begin() + n / 2);
  const std::vector<double> second(queue_waits_.begin() + n / 2,
                                   queue_waits_.end());
  const double a = median(first);
  const double b = median(second);
  return b > floor && b > 2.0 * a;
}

}  // namespace perfbench
