#include "corun/core/model/corun_predictor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "corun/common/check.hpp"
#include "corun/common/trace/trace.hpp"

namespace corun::model {

/// The dense analytic tables. Rows exist only for (job, device) pairs the
/// DB has profiles for; everything else falls back to the legacy on-demand
/// path. Cells are computed with the exact legacy arithmetic (entry_at +
/// staged interpolation), so a table answer and a fallback answer are the
/// same bits.
struct CoRunPredictor::AnalyticCore {
  std::unordered_map<std::string, std::size_t> cpu_index;  ///< job -> row
  std::unordered_map<std::string, std::size_t> gpu_index;
  std::size_t cpu_levels = 0;  ///< ladder size (max_level + 1)
  std::size_t gpu_levels = 0;
  std::vector<profile::ProfileEntry> cpu_entries;  ///< [row][level]
  std::vector<profile::ProfileEntry> gpu_entries;
  std::vector<PairPrediction> pairs;  ///< [cpu row][cl][gpu row][gl]

  [[nodiscard]] const profile::ProfileEntry* entry(
      sim::DeviceKind device, const std::string& job,
      sim::FreqLevel level) const {
    const bool cpu = device == sim::DeviceKind::kCpu;
    const std::size_t n = cpu ? cpu_levels : gpu_levels;
    if (level < 0 || static_cast<std::size_t>(level) >= n) return nullptr;
    const auto& index = cpu ? cpu_index : gpu_index;
    const auto it = index.find(job);
    if (it == index.end()) return nullptr;
    const auto& entries = cpu ? cpu_entries : gpu_entries;
    return &entries[it->second * n + static_cast<std::size_t>(level)];
  }

  [[nodiscard]] const PairPrediction* pair(const std::string& cpu_job,
                                           sim::FreqLevel cpu_level,
                                           const std::string& gpu_job,
                                           sim::FreqLevel gpu_level) const {
    if (cpu_level < 0 ||
        static_cast<std::size_t>(cpu_level) >= cpu_levels ||
        gpu_level < 0 || static_cast<std::size_t>(gpu_level) >= gpu_levels) {
      return nullptr;
    }
    const auto ci = cpu_index.find(cpu_job);
    if (ci == cpu_index.end()) return nullptr;
    const auto gi = gpu_index.find(gpu_job);
    if (gi == gpu_index.end()) return nullptr;
    const std::size_t idx =
        ((ci->second * cpu_levels + static_cast<std::size_t>(cpu_level)) *
             gpu_index.size() +
         gi->second) *
            gpu_levels +
        static_cast<std::size_t>(gpu_level);
    return &pairs[idx];
  }
};

CoRunPredictor::CoRunPredictor(const profile::ProfileDB& db,
                               DegradationGrid grid, sim::MachineConfig config,
                               PredictorOptions options)
    : db_(db),
      interp_(std::move(grid)),
      config_(std::move(config)),
      options_(options) {
  CORUN_CHECK_MSG(db_.idle_power() > 0.0,
                  "profile DB lacks the idle-power measurement");
}

CoRunPredictor::CoRunPredictor(const CoRunPredictor& other,
                               PredictorOptions options)
    : db_(other.db_),
      interp_(other.interp_),
      config_(other.config_),
      options_(options) {}

CoRunPredictor::~CoRunPredictor() {
  const std::uint64_t hits = analytic_hits_.load(std::memory_order_relaxed);
  if (hits != 0) {
    trace::counter_add("backend.analytic_hits", static_cast<double>(hits));
  }
}

std::unique_ptr<CoRunPredictor::AnalyticCore> CoRunPredictor::build_core()
    const {
  auto core = std::make_unique<AnalyticCore>();
  core->cpu_levels =
      static_cast<std::size_t>(config_.cpu_ladder.max_level()) + 1;
  core->gpu_levels =
      static_cast<std::size_t>(config_.gpu_ladder.max_level()) + 1;
  for (const std::string& job : db_.jobs()) {
    for (const sim::DeviceKind device :
         {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
      if (db_.levels(job, device).empty()) continue;
      const bool cpu = device == sim::DeviceKind::kCpu;
      auto& index = cpu ? core->cpu_index : core->gpu_index;
      auto& entries = cpu ? core->cpu_entries : core->gpu_entries;
      const std::size_t n = cpu ? core->cpu_levels : core->gpu_levels;
      index.emplace(job, index.size());
      for (std::size_t l = 0; l < n; ++l) {
        entries.push_back(
            entry_at(job, device, static_cast<sim::FreqLevel>(l)));
      }
    }
  }
  const std::size_t n_cpu = core->cpu_index.size();
  const std::size_t n_gpu = core->gpu_index.size();
  core->pairs.resize(n_cpu * core->cpu_levels * n_gpu * core->gpu_levels);
  std::size_t idx = 0;
  // Row order follows entry storage, which follows the insertion order of
  // the index maps (db_.jobs() is sorted, so the layout is deterministic).
  for (std::size_t ci = 0; ci < n_cpu; ++ci) {
    for (std::size_t cl = 0; cl < core->cpu_levels; ++cl) {
      const profile::ProfileEntry& ce =
          core->cpu_entries[ci * core->cpu_levels + cl];
      for (std::size_t gi = 0; gi < n_gpu; ++gi) {
        for (std::size_t gl = 0; gl < core->gpu_levels; ++gl) {
          const profile::ProfileEntry& ge =
              core->gpu_entries[gi * core->gpu_levels + gl];
          PairPrediction& p = core->pairs[idx++];
          p.cpu_degradation = interp_.cpu_degradation(ce.avg_bw, ge.avg_bw);
          p.gpu_degradation = interp_.gpu_degradation(ce.avg_bw, ge.avg_bw);
          p.cpu_solo_time = ce.time;
          p.gpu_solo_time = ge.time;
          p.cpu_time = ce.time * (1.0 + p.cpu_degradation);
          p.gpu_time = ge.time * (1.0 + p.gpu_degradation);
          p.power = ce.avg_power + ge.avg_power - db_.idle_power();
        }
      }
    }
  }
  return core;
}

const CoRunPredictor::AnalyticCore* CoRunPredictor::analytic_core() const {
  if (!options_.analytic_tables) return nullptr;
  if (const AnalyticCore* core = core_.load(std::memory_order_acquire)) {
    return core;
  }
  const std::lock_guard<std::mutex> lock(core_mutex_);
  if (const AnalyticCore* core = core_.load(std::memory_order_relaxed)) {
    return core;
  }
  core_storage_ = build_core();
  core_.store(core_storage_.get(), std::memory_order_release);
  return core_storage_.get();
}

void CoRunPredictor::count_analytic_hit() const {
  // The tally only feeds the backend.analytic_hits trace counter; skip the
  // shared-cache-line increment entirely when tracing is off.
  if (trace::enabled()) {
    analytic_hits_.fetch_add(1, std::memory_order_relaxed);
  }
}

profile::ProfileEntry CoRunPredictor::entry_at(const std::string& job,
                                               sim::DeviceKind device,
                                               sim::FreqLevel level) const {
  if (db_.contains(job, device, level)) {
    return db_.at(job, device, level);
  }
  // Sub-sampled DB: interpolate between the nearest recorded levels by
  // frequency. Extrapolation is clamped to the recorded range.
  const auto levels = db_.levels(job, device);
  CORUN_CHECK_MSG(!levels.empty(), "no profiles for " + job);
  const sim::FrequencyLadder& ladder = config_.ladder(device);
  const GHz f = ladder.at(ladder.clamp(level));

  const profile::ProfileEntry* lo = nullptr;
  const profile::ProfileEntry* hi = nullptr;
  GHz f_lo = 0.0;
  GHz f_hi = 0.0;
  for (const sim::FreqLevel l : levels) {
    const GHz fl = ladder.at(l);
    const profile::ProfileEntry& e = db_.at(job, device, l);
    if (fl <= f && (lo == nullptr || fl > f_lo)) {
      lo = &e;
      f_lo = fl;
    }
    if (fl >= f && (hi == nullptr || fl < f_hi)) {
      hi = &e;
      f_hi = fl;
    }
  }
  if (lo == nullptr) return *hi;
  if (hi == nullptr) return *lo;
  if (f_hi <= f_lo) return *lo;
  const double t = (f - f_lo) / (f_hi - f_lo);
  auto lerp = [t](double a, double b) { return a * (1.0 - t) + b * t; };
  return profile::ProfileEntry{.time = lerp(lo->time, hi->time),
                               .avg_bw = lerp(lo->avg_bw, hi->avg_bw),
                               .avg_power = lerp(lo->avg_power, hi->avg_power),
                               .energy = lerp(lo->energy, hi->energy)};
}

Seconds CoRunPredictor::standalone_time(const std::string& job,
                                        sim::DeviceKind device,
                                        sim::FreqLevel level) const {
  if (const AnalyticCore* core = analytic_core()) {
    if (const profile::ProfileEntry* e = core->entry(device, job, level)) {
      count_analytic_hit();
      return e->time;
    }
  }
  return entry_at(job, device, level).time;
}

GBps CoRunPredictor::standalone_bw(const std::string& job,
                                   sim::DeviceKind device,
                                   sim::FreqLevel level) const {
  if (const AnalyticCore* core = analytic_core()) {
    if (const profile::ProfileEntry* e = core->entry(device, job, level)) {
      count_analytic_hit();
      return e->avg_bw;
    }
  }
  return entry_at(job, device, level).avg_bw;
}

Watts CoRunPredictor::standalone_power(const std::string& job,
                                       sim::DeviceKind device,
                                       sim::FreqLevel level) const {
  if (const AnalyticCore* core = analytic_core()) {
    if (const profile::ProfileEntry* e = core->entry(device, job, level)) {
      count_analytic_hit();
      return e->avg_power;
    }
  }
  return entry_at(job, device, level).avg_power;
}

PairPrediction CoRunPredictor::predict(const std::string& cpu_job,
                                       sim::FreqLevel cpu_level,
                                       const std::string& gpu_job,
                                       sim::FreqLevel gpu_level) const {
  if (const AnalyticCore* core = analytic_core()) {
    if (const PairPrediction* p =
            core->pair(cpu_job, cpu_level, gpu_job, gpu_level)) {
      count_analytic_hit();
      return *p;
    }
  }
  const profile::ProfileEntry cpu_entry =
      entry_at(cpu_job, sim::DeviceKind::kCpu, cpu_level);
  const profile::ProfileEntry gpu_entry =
      entry_at(gpu_job, sim::DeviceKind::kGpu, gpu_level);

  PairPrediction out;
  out.cpu_degradation =
      interp_.cpu_degradation(cpu_entry.avg_bw, gpu_entry.avg_bw);
  out.gpu_degradation =
      interp_.gpu_degradation(cpu_entry.avg_bw, gpu_entry.avg_bw);
  out.cpu_solo_time = cpu_entry.time;
  out.gpu_solo_time = gpu_entry.time;
  out.cpu_time = cpu_entry.time * (1.0 + out.cpu_degradation);
  out.gpu_time = gpu_entry.time * (1.0 + out.gpu_degradation);
  out.power = cpu_entry.avg_power + gpu_entry.avg_power - db_.idle_power();
  return out;
}

Watts CoRunPredictor::predict_power(const std::string& cpu_job,
                                    sim::FreqLevel cpu_level,
                                    const std::string& gpu_job,
                                    sim::FreqLevel gpu_level) const {
  if (const AnalyticCore* core = analytic_core()) {
    const profile::ProfileEntry* ce =
        core->entry(sim::DeviceKind::kCpu, cpu_job, cpu_level);
    const profile::ProfileEntry* ge =
        core->entry(sim::DeviceKind::kGpu, gpu_job, gpu_level);
    if (ce != nullptr && ge != nullptr) {
      count_analytic_hit();
      return ce->avg_power + ge->avg_power - db_.idle_power();
    }
  }
  return standalone_power(cpu_job, sim::DeviceKind::kCpu, cpu_level) +
         standalone_power(gpu_job, sim::DeviceKind::kGpu, gpu_level) -
         db_.idle_power();
}

bool CoRunPredictor::corun_feasible(const std::string& cpu_job,
                                    sim::FreqLevel cpu_level,
                                    const std::string& gpu_job,
                                    sim::FreqLevel gpu_level,
                                    std::optional<Watts> cap) const {
  if (!cap) return true;
  return predict_power(cpu_job, cpu_level, gpu_job, gpu_level) <= *cap;
}

bool CoRunPredictor::solo_feasible(const std::string& job,
                                   sim::DeviceKind device, sim::FreqLevel level,
                                   std::optional<Watts> cap) const {
  if (!cap) return true;
  return standalone_power(job, device, level) <= *cap;
}

std::optional<sim::FreqLevel> CoRunPredictor::best_solo_level(
    const std::string& job, sim::DeviceKind device,
    std::optional<Watts> cap) const {
  const sim::FrequencyLadder& ladder = config_.ladder(device);
  std::optional<sim::FreqLevel> best;
  Seconds best_time = std::numeric_limits<Seconds>::infinity();
  for (sim::FreqLevel l = 0; l <= ladder.max_level(); ++l) {
    if (!solo_feasible(job, device, l, cap)) continue;
    const Seconds t = standalone_time(job, device, l);
    if (t < best_time) {
      best_time = t;
      best = l;
    }
  }
  return best;
}

Seconds CoRunPredictor::best_solo_time(const std::string& job,
                                       sim::DeviceKind device,
                                       std::optional<Watts> cap) const {
  const auto level = best_solo_level(job, device, cap);
  CORUN_CHECK_MSG(level.has_value(),
                  "no cap-feasible standalone level for " + job);
  return standalone_time(job, device, *level);
}

Seconds CoRunPredictor::min_corun_time(const std::string& job,
                                       sim::DeviceKind device,
                                       const std::string& partner,
                                       std::optional<Watts> cap,
                                       bool include_floor_pair) const {
  // Exact cap rendering (%.17g, not a quantized bucket): the minimum feeds
  // admissible lower bounds, where serving a neighbouring cap's value would
  // silently change pruning decisions.
  char cap_buf[64];
  if (cap) {
    std::snprintf(cap_buf, sizeof(cap_buf), "%.17g", *cap);
  } else {
    std::snprintf(cap_buf, sizeof(cap_buf), "none");
  }
  std::string key = job;
  key += device == sim::DeviceKind::kCpu ? "|c|" : "|g|";
  key += partner;
  key += '|';
  key += cap_buf;
  key += include_floor_pair ? "|f" : "|s";
  {
    const std::lock_guard<std::mutex> lock(pair_cache_mutex_);
    if (const auto it = corun_min_cache_.find(key);
        it != corun_min_cache_.end()) {
      return it->second;
    }
  }

  const std::string& cpu_job = device == sim::DeviceKind::kCpu ? job : partner;
  const std::string& gpu_job = device == sim::DeviceKind::kCpu ? partner : job;
  Seconds best = std::numeric_limits<Seconds>::infinity();
  for (sim::FreqLevel fc = 0; fc <= config_.cpu_ladder.max_level(); ++fc) {
    for (sim::FreqLevel fg = 0; fg <= config_.gpu_ladder.max_level(); ++fg) {
      if (!corun_feasible(cpu_job, fc, gpu_job, fg, cap) &&
          !(include_floor_pair && fc == 0 && fg == 0)) {
        continue;
      }
      const PairPrediction p = predict(cpu_job, fc, gpu_job, fg);
      best = std::min(best,
                      device == sim::DeviceKind::kCpu ? p.cpu_time : p.gpu_time);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(pair_cache_mutex_);
    corun_min_cache_.emplace(std::move(key), best);
  }
  return best;
}

std::optional<FreqPair> CoRunPredictor::best_pair_min_makespan(
    const std::string& cpu_job, const std::string& gpu_job,
    std::optional<Watts> cap) const {
  return best_pair_weighted(cpu_job, gpu_job, cap, 1.0, 1.0);
}

std::optional<FreqPair> CoRunPredictor::best_pair_weighted(
    const std::string& cpu_job, const std::string& gpu_job,
    std::optional<Watts> cap, double cpu_weight, double gpu_weight) const {
  CORUN_CHECK(cpu_weight > 0.0 && gpu_weight > 0.0);

  // Only the weight ratio matters; quantize it to quarter-octaves (clamped
  // to +-6 octaves) so repeated near-identical queries hit the memo cache.
  const double log_ratio =
      std::clamp(std::log2(gpu_weight / cpu_weight), -6.0, 6.0);
  const int bucket = static_cast<int>(std::lround(log_ratio * 4.0));
  const double wc = 1.0;
  const double wg = std::exp2(static_cast<double>(bucket) / 4.0);
  std::string key = cpu_job;
  key += '|';
  key += gpu_job;
  key += '|';
  key += std::to_string(
      cap ? static_cast<long long>(std::llround(*cap * 100.0)) : -1LL);
  key += '|';
  key += std::to_string(bucket);
  {
    const std::lock_guard<std::mutex> lock(pair_cache_mutex_);
    if (const auto it = pair_cache_.find(key); it != pair_cache_.end()) {
      return it->second;
    }
  }
  const double cpu_weight_q = wc;
  const double gpu_weight_q = wg;

  std::optional<FreqPair> best;
  double best_metric = std::numeric_limits<double>::infinity();
  for (sim::FreqLevel fc = 0; fc <= config_.cpu_ladder.max_level(); ++fc) {
    for (sim::FreqLevel fg = 0; fg <= config_.gpu_ladder.max_level(); ++fg) {
      if (!corun_feasible(cpu_job, fc, gpu_job, fg, cap)) continue;
      const PairPrediction p = predict(cpu_job, fc, gpu_job, fg);
      // Tiny secondary objective: among near-equal maxima prefer the pair
      // that also finishes the lighter side sooner.
      const double metric =
          std::max(cpu_weight_q * p.cpu_time, gpu_weight_q * p.gpu_time) +
          1e-4 * (cpu_weight_q * p.cpu_time + gpu_weight_q * p.gpu_time);
      if (metric < best_metric) {
        best_metric = metric;
        best = FreqPair{fc, fg};
      }
    }
  }
  {
    const std::lock_guard<std::mutex> lock(pair_cache_mutex_);
    pair_cache_.emplace(std::move(key), best);
  }
  return best;
}

std::optional<FreqPair> CoRunPredictor::best_pair_min_degradation(
    const std::string& cpu_job, const std::string& gpu_job,
    std::optional<Watts> cap) const {
  std::optional<FreqPair> best;
  double best_metric = std::numeric_limits<double>::infinity();
  for (sim::FreqLevel fc = 0; fc <= config_.cpu_ladder.max_level(); ++fc) {
    for (sim::FreqLevel fg = 0; fg <= config_.gpu_ladder.max_level(); ++fg) {
      if (!corun_feasible(cpu_job, fc, gpu_job, fg, cap)) continue;
      const PairPrediction p = predict(cpu_job, fc, gpu_job, fg);
      // Among equal degradations prefer the higher-frequency (faster) pair;
      // folding a small negative frequency bonus into the metric does that
      // without a separate tie-break pass.
      const double freq_bonus =
          1e-3 * (config_.cpu_ladder.fraction(fc) + config_.gpu_ladder.fraction(fg));
      const double metric = p.cpu_degradation + p.gpu_degradation - freq_bonus;
      if (metric < best_metric) {
        best_metric = metric;
        best = FreqPair{fc, fg};
      }
    }
  }
  return best;
}

std::optional<sim::FreqLevel> CoRunPredictor::best_level_against(
    const std::string& job, sim::DeviceKind device, const std::string& partner,
    sim::FreqLevel partner_level, std::optional<Watts> cap) const {
  const sim::FrequencyLadder& ladder = config_.ladder(device);
  std::optional<sim::FreqLevel> best;
  double best_time = std::numeric_limits<double>::infinity();
  for (sim::FreqLevel l = 0; l <= ladder.max_level(); ++l) {
    const std::string& cpu_job = device == sim::DeviceKind::kCpu ? job : partner;
    const std::string& gpu_job = device == sim::DeviceKind::kCpu ? partner : job;
    const sim::FreqLevel fc = device == sim::DeviceKind::kCpu ? l : partner_level;
    const sim::FreqLevel fg = device == sim::DeviceKind::kCpu ? partner_level : l;
    if (!corun_feasible(cpu_job, fc, gpu_job, fg, cap)) continue;
    const PairPrediction p = predict(cpu_job, fc, gpu_job, fg);
    const double t = device == sim::DeviceKind::kCpu ? p.cpu_time : p.gpu_time;
    if (t < best_time) {
      best_time = t;
      best = l;
    }
  }
  return best;
}

}  // namespace corun::model
