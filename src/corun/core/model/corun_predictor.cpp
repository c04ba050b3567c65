#include "corun/core/model/corun_predictor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "corun/common/check.hpp"
#include "corun/common/trace/trace.hpp"

namespace corun::model {

namespace {

/// The cap test every search and feasibility query applies to a cell.
bool fits(Watts power, std::optional<Watts> cap) {
  return !cap || power <= *cap;
}

/// One (job, device) row as ProfileDB::row returns it: (level, entry) by
/// ascending level.
using ProfileRow =
    std::vector<std::pair<sim::FreqLevel, profile::ProfileEntry>>;

/// The entry of a non-empty `row` at `level`: the recorded entry when the
/// row has one, otherwise a blend of the nearest recorded levels by
/// frequency, with extrapolation clamped to the recorded range. The table
/// build fills whole rows through it and entry_at answers every unrecorded
/// level through it, so a table entry and an on-demand one are the same
/// bits.
profile::ProfileEntry entry_in_row(const ProfileRow& row,
                                   const sim::FrequencyLadder& ladder,
                                   sim::FreqLevel level) {
  for (const auto& [l, e] : row) {
    if (l == level) return e;
  }
  const GHz f = ladder.at(ladder.clamp(level));
  const profile::ProfileEntry* lo = nullptr;
  const profile::ProfileEntry* hi = nullptr;
  GHz f_lo = 0.0;
  GHz f_hi = 0.0;
  for (const auto& [l, e] : row) {
    const GHz fl = ladder.at(l);
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

}  // namespace

/// Rows exist only for (job, device) pairs the DB has profiles for. A job
/// outside them fails the same check the on-demand entry_at applies (the
/// standalone and power queries by falling back to that path). Table cells
/// are computed with the exact legacy arithmetic (entry_at + combine), so
/// a table answer and an on-demand answer are the same bits.
struct CoRunPredictor::Core {
  std::unordered_map<std::string, std::size_t> cpu_index;  ///< job -> row
  std::unordered_map<std::string, std::size_t> gpu_index;
  std::size_t cpu_levels = 0;  ///< ladder size (max_level + 1)
  std::size_t gpu_levels = 0;

  // The tables; empty with options_.analytic_tables off.
  std::vector<profile::ProfileEntry> cpu_entries;  ///< [row][level]
  std::vector<profile::ProfileEntry> gpu_entries;
  /// Pair blocks [cpu row][gpu row], each [cpu level][gpu level]. A block
  /// is filled under fill_mutex into block_storage and published through
  /// its acquire/release pointer.
  std::vector<std::atomic<const PairPrediction*>> blocks;
  std::vector<std::unique_ptr<PairPrediction[]>> block_storage;
  std::mutex fill_mutex;
  std::size_t filled_blocks = 0;  ///< under fill_mutex
};

std::size_t CoRunPredictor::SearchKeyHash::operator()(
    const SearchKey& key) const noexcept {
  std::uint64_t h = key.block;
  h = h * 0x9E3779B97F4A7C15ULL + key.cap_bits;
  h = h * 0x9E3779B97F4A7C15ULL + static_cast<std::uint32_t>(key.variant);
  h = h * 2 + (key.capped ? 1 : 0);
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ULL;
  return static_cast<std::size_t>(h ^ (h >> 29));
}

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
  if (core_storage_ != nullptr && core_storage_->filled_blocks != 0) {
    trace::counter_add("backend.analytic_blocks",
                       static_cast<double>(core_storage_->filled_blocks));
  }
}

std::unique_ptr<CoRunPredictor::Core> CoRunPredictor::build_core() const {
  auto core = std::make_unique<Core>();
  core->cpu_levels =
      static_cast<std::size_t>(config_.cpu_ladder.max_level()) + 1;
  core->gpu_levels =
      static_cast<std::size_t>(config_.gpu_ladder.max_level()) + 1;
  // Row order follows db_.jobs(), which is sorted, so the layout is
  // deterministic. Each (job, device) row is read from the DB once and
  // every ladder level is filled from it.
  for (const std::string& job : db_.jobs()) {
    for (const sim::DeviceKind device :
         {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
      const ProfileRow row = db_.row(job, device);
      if (row.empty()) continue;
      const bool cpu = device == sim::DeviceKind::kCpu;
      auto& index = cpu ? core->cpu_index : core->gpu_index;
      index.emplace(job, index.size());
      if (!options_.analytic_tables) continue;
      auto& entries = cpu ? core->cpu_entries : core->gpu_entries;
      const std::size_t n = cpu ? core->cpu_levels : core->gpu_levels;
      for (std::size_t l = 0; l < n; ++l) {
        entries.push_back(entry_in_row(row, config_.ladder(device),
                                       static_cast<sim::FreqLevel>(l)));
      }
    }
  }
  if (options_.analytic_tables) {
    const std::size_t n_blocks =
        core->cpu_index.size() * core->gpu_index.size();
    core->blocks = std::vector<std::atomic<const PairPrediction*>>(n_blocks);
    core->block_storage.resize(n_blocks);
  }
  return core;
}

CoRunPredictor::Core& CoRunPredictor::core() const {
  if (Core* core = core_.load(std::memory_order_acquire)) return *core;
  const std::lock_guard<std::mutex> lock(core_mutex_);
  if (Core* core = core_.load(std::memory_order_relaxed)) return *core;
  core_storage_ = build_core();
  core_.store(core_storage_.get(), std::memory_order_release);
  return *core_storage_;
}

const PairPrediction* CoRunPredictor::pair_block(Core& core,
                                                 std::size_t block) const {
  std::atomic<const PairPrediction*>& published = core.blocks[block];
  if (const PairPrediction* cells = published.load(std::memory_order_acquire)) {
    return cells;
  }
  const std::lock_guard<std::mutex> lock(core.fill_mutex);
  if (const PairPrediction* cells = published.load(std::memory_order_relaxed)) {
    return cells;
  }
  // Each row is located on its grid axis once per block: cpu_levels +
  // gpu_levels axis searches, then two blends per cell.
  const std::size_t n_gpu = core.gpu_index.size();
  const profile::ProfileEntry* cpu_row =
      &core.cpu_entries[block / n_gpu * core.cpu_levels];
  const profile::ProfileEntry* gpu_row =
      &core.gpu_entries[block % n_gpu * core.gpu_levels];
  std::vector<AxisPos> gpu_pos(core.gpu_levels);
  for (std::size_t gl = 0; gl < core.gpu_levels; ++gl) {
    gpu_pos[gl] = interp_.locate_gpu(gpu_row[gl].avg_bw);
  }
  auto cells =
      std::make_unique<PairPrediction[]>(core.cpu_levels * core.gpu_levels);
  PairPrediction* cell = cells.get();
  for (std::size_t cl = 0; cl < core.cpu_levels; ++cl) {
    const AxisPos cpu_pos = interp_.locate_cpu(cpu_row[cl].avg_bw);
    for (std::size_t gl = 0; gl < core.gpu_levels; ++gl) {
      *cell++ = combine(cpu_row[cl], cpu_pos, gpu_row[gl], gpu_pos[gl]);
    }
  }
  const PairPrediction* filled = cells.get();
  core.block_storage[block] = std::move(cells);
  ++core.filled_blocks;
  published.store(filled, std::memory_order_release);
  return filled;
}

JobRow CoRunPredictor::row(const std::string& job,
                           sim::DeviceKind device) const {
  const Core& c = core();
  const bool cpu = device == sim::DeviceKind::kCpu;
  JobRow out;
  out.job = &job;
  out.device = device;
  const auto& index = cpu ? c.cpu_index : c.gpu_index;
  const auto it = index.find(job);
  if (it == index.end()) return out;
  out.index = it->second;
  if (options_.analytic_tables) {
    out.entries = (cpu ? c.cpu_entries : c.gpu_entries).data() +
                  out.index * (cpu ? c.cpu_levels : c.gpu_levels);
  }
  return out;
}

CoRunPredictor::PairCells CoRunPredictor::pair(const JobRow& cpu,
                                               const JobRow& gpu) const {
  // A job without profiles on its side fails exactly as the on-demand
  // path's entry_at does.
  CORUN_CHECK_MSG(cpu.profiled(), "no profiles for " + *cpu.job);
  CORUN_CHECK_MSG(gpu.profiled(), "no profiles for " + *gpu.job);
  Core& c = core();
  PairCells cells;
  cells.self = this;
  cells.cpu_job = cpu.job;
  cells.gpu_job = gpu.job;
  cells.block = cpu.index * c.gpu_index.size() + gpu.index;
  cells.cpu_max = config_.cpu_ladder.max_level();
  cells.gpu_max = config_.gpu_ladder.max_level();
  if (options_.analytic_tables) cells.table = pair_block(c, cells.block);
  return cells;
}

CoRunPredictor::PairCells CoRunPredictor::pair_cells(
    const std::string& cpu_job, const std::string& gpu_job) const {
  return pair(row(cpu_job, sim::DeviceKind::kCpu),
              row(gpu_job, sim::DeviceKind::kGpu));
}

bool CoRunPredictor::in_table(const JobRow& row,
                              sim::FreqLevel level) const noexcept {
  return row.entries != nullptr && level >= 0 &&
         level <= config_.ladder(row.device).max_level();
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
  // Sub-sampled DB: interpolate between the nearest recorded levels.
  const ProfileRow row = db_.row(job, device);
  CORUN_CHECK_MSG(!row.empty(), "no profiles for " + job);
  return entry_in_row(row, config_.ladder(device), level);
}

PairPrediction CoRunPredictor::combine(const profile::ProfileEntry& cpu,
                                       AxisPos cpu_pos,
                                       const profile::ProfileEntry& gpu,
                                       AxisPos gpu_pos) const {
  const DegradationGrid& grid = interp_.grid();
  PairPrediction out;
  out.cpu_degradation =
      StagedInterpolator::blend(grid.cpu_deg, cpu_pos, gpu_pos);
  out.gpu_degradation =
      StagedInterpolator::blend(grid.gpu_deg, cpu_pos, gpu_pos);
  out.cpu_solo_time = cpu.time;
  out.gpu_solo_time = gpu.time;
  out.cpu_time = cpu.time * (1.0 + out.cpu_degradation);
  out.gpu_time = gpu.time * (1.0 + out.gpu_degradation);
  out.power = cpu.avg_power + gpu.avg_power - db_.idle_power();
  return out;
}

PairPrediction CoRunPredictor::predict_legacy(const std::string& cpu_job,
                                              sim::FreqLevel cpu_level,
                                              const std::string& gpu_job,
                                              sim::FreqLevel gpu_level) const {
  const profile::ProfileEntry cpu_entry =
      entry_at(cpu_job, sim::DeviceKind::kCpu, cpu_level);
  const profile::ProfileEntry gpu_entry =
      entry_at(gpu_job, sim::DeviceKind::kGpu, gpu_level);
  return combine(cpu_entry, interp_.locate_cpu(cpu_entry.avg_bw), gpu_entry,
                 interp_.locate_gpu(gpu_entry.avg_bw));
}

Seconds CoRunPredictor::standalone_time(const JobRow& row,
                                        sim::FreqLevel level) const {
  if (in_table(row, level)) {
    count_analytic_hit();
    return row.entries[level].time;
  }
  return entry_at(*row.job, row.device, level).time;
}

Watts CoRunPredictor::standalone_power(const JobRow& row,
                                       sim::FreqLevel level) const {
  if (in_table(row, level)) {
    count_analytic_hit();
    return row.entries[level].avg_power;
  }
  return entry_at(*row.job, row.device, level).avg_power;
}

PairPrediction CoRunPredictor::predict(const JobRow& cpu,
                                       sim::FreqLevel cpu_level,
                                       const JobRow& gpu,
                                       sim::FreqLevel gpu_level) const {
  // Off-ladder levels have no table cell; the on-demand path clamps them.
  if (options_.analytic_tables && cpu_level >= 0 &&
      cpu_level <= config_.cpu_ladder.max_level() && gpu_level >= 0 &&
      gpu_level <= config_.gpu_ladder.max_level()) {
    return predict(pair(cpu, gpu), cpu_level, gpu_level);
  }
  return predict_legacy(*cpu.job, cpu_level, *gpu.job, gpu_level);
}

PairPrediction CoRunPredictor::predict(const PairCells& cells,
                                       sim::FreqLevel cpu_level,
                                       sim::FreqLevel gpu_level) const {
  if (cells.table != nullptr && cpu_level >= 0 && cpu_level <= cells.cpu_max &&
      gpu_level >= 0 && gpu_level <= cells.gpu_max) {
    count_analytic_hit();
    return cells.at(cpu_level, gpu_level);
  }
  return predict_legacy(*cells.cpu_job, cpu_level, *cells.gpu_job, gpu_level);
}

Watts CoRunPredictor::predict_power(const JobRow& cpu,
                                    sim::FreqLevel cpu_level,
                                    const JobRow& gpu,
                                    sim::FreqLevel gpu_level) const {
  if (in_table(cpu, cpu_level) && in_table(gpu, gpu_level)) {
    count_analytic_hit();
    return cpu.entries[cpu_level].avg_power +
           gpu.entries[gpu_level].avg_power - db_.idle_power();
  }
  return standalone_power(cpu, cpu_level) + standalone_power(gpu, gpu_level) -
         db_.idle_power();
}

Seconds CoRunPredictor::standalone_time(const std::string& job,
                                        sim::DeviceKind device,
                                        sim::FreqLevel level) const {
  return standalone_time(row(job, device), level);
}

Watts CoRunPredictor::standalone_power(const std::string& job,
                                       sim::DeviceKind device,
                                       sim::FreqLevel level) const {
  return standalone_power(row(job, device), level);
}

PairPrediction CoRunPredictor::predict(const std::string& cpu_job,
                                       sim::FreqLevel cpu_level,
                                       const std::string& gpu_job,
                                       sim::FreqLevel gpu_level) const {
  return predict(row(cpu_job, sim::DeviceKind::kCpu), cpu_level,
                 row(gpu_job, sim::DeviceKind::kGpu), gpu_level);
}

Watts CoRunPredictor::predict_power(const std::string& cpu_job,
                                    sim::FreqLevel cpu_level,
                                    const std::string& gpu_job,
                                    sim::FreqLevel gpu_level) const {
  return predict_power(row(cpu_job, sim::DeviceKind::kCpu), cpu_level,
                       row(gpu_job, sim::DeviceKind::kGpu), gpu_level);
}

std::optional<std::pair<sim::FreqLevel, Seconds>> CoRunPredictor::best_solo(
    const JobRow& row, std::optional<Watts> cap) const {
  // A job without profiles on the row's device has no table row; entry_at
  // reports it.
  if (row.entries != nullptr) count_analytic_hit();
  std::optional<std::pair<sim::FreqLevel, Seconds>> best;
  Seconds best_time = std::numeric_limits<Seconds>::infinity();
  for (sim::FreqLevel l = 0; l <= config_.ladder(row.device).max_level();
       ++l) {
    const profile::ProfileEntry e = row.entries != nullptr
                                        ? row.entries[l]
                                        : entry_at(*row.job, row.device, l);
    if (!fits(e.avg_power, cap)) continue;
    if (e.time < best_time) {
      best_time = e.time;
      best = {l, e.time};
    }
  }
  return best;
}

std::optional<sim::FreqLevel> CoRunPredictor::best_solo_level(
    const std::string& job, sim::DeviceKind device,
    std::optional<Watts> cap) const {
  const auto best = best_solo(row(job, device), cap);
  if (!best) return std::nullopt;
  return best->first;
}

Seconds CoRunPredictor::best_solo_time(const std::string& job,
                                       sim::DeviceKind device,
                                       std::optional<Watts> cap) const {
  const auto best = best_solo(row(job, device), cap);
  CORUN_CHECK_MSG(best.has_value(),
                  "no cap-feasible standalone level for " + job);
  return best->second;
}

CoRunPredictor::SearchKey CoRunPredictor::SearchKey::of(
    std::size_t block, std::optional<Watts> cap, int variant) {
  return {.block = block,
          .cap_bits = cap ? std::bit_cast<std::uint64_t>(*cap) : 0,
          .capped = cap.has_value(),
          .variant = variant};
}

int CoRunPredictor::weight_bucket(double cpu_weight, double gpu_weight) {
  CORUN_CHECK(cpu_weight > 0.0 && gpu_weight > 0.0);
  const double log_ratio =
      std::clamp(std::log2(gpu_weight / cpu_weight), -6.0, 6.0);
  return static_cast<int>(std::lround(log_ratio * 4.0));
}

Seconds CoRunPredictor::scan_min_corun_time(const PairCells& cells,
                                            sim::DeviceKind device,
                                            std::optional<Watts> cap,
                                            bool include_floor_pair) const {
  const bool on_cpu = device == sim::DeviceKind::kCpu;
  Seconds best = std::numeric_limits<Seconds>::infinity();
  cells.for_each([&](sim::FreqLevel fc, sim::FreqLevel fg,
                     const PairPrediction& p) {
    if (!fits(p.power, cap) && !(include_floor_pair && fc == 0 && fg == 0)) {
      return;
    }
    best = std::min(best, on_cpu ? p.cpu_time : p.gpu_time);
  });
  return best;
}

std::optional<FreqPair> CoRunPredictor::scan_best_pair_weighted(
    const PairCells& cells, std::optional<Watts> cap, int bucket) const {
  const double wc = 1.0;
  const double wg = std::exp2(static_cast<double>(bucket) / 4.0);
  const Watts limit = cap.value_or(std::numeric_limits<Watts>::infinity());
  double best_metric = std::numeric_limits<double>::infinity();
  FreqPair best_pair;
  bool found = false;
  cells.for_each([&](sim::FreqLevel fc, sim::FreqLevel fg,
                     const PairPrediction& p) {
    // Tiny secondary objective: among near-equal maxima prefer the pair
    // that also finishes the lighter side sooner.
    const double metric = std::max(wc * p.cpu_time, wg * p.gpu_time) +
                          1e-4 * (wc * p.cpu_time + wg * p.gpu_time);
    // The first strictly better feasible cell wins, written as selects.
    const bool better = p.power <= limit && metric < best_metric;
    best_metric = better ? metric : best_metric;
    best_pair.cpu = better ? fc : best_pair.cpu;
    best_pair.gpu = better ? fg : best_pair.gpu;
    found = found || better;
  });
  if (!found) return std::nullopt;
  return best_pair;
}

std::optional<FreqPair> CoRunPredictor::best_pair_min_degradation(
    const PairCells& cells, std::optional<Watts> cap) const {
  std::optional<FreqPair> best;
  double best_metric = std::numeric_limits<double>::infinity();
  cells.for_each([&](sim::FreqLevel fc, sim::FreqLevel fg,
                     const PairPrediction& p) {
    if (!fits(p.power, cap)) return;
    // Among equal degradations prefer the higher-frequency (faster) pair;
    // folding a small negative frequency bonus into the metric does that
    // without a separate tie-break pass.
    const double freq_bonus = 1e-3 * (config_.cpu_ladder.fraction(fc) +
                                      config_.gpu_ladder.fraction(fg));
    const double metric = p.cpu_degradation + p.gpu_degradation - freq_bonus;
    if (metric < best_metric) {
      best_metric = metric;
      best = FreqPair{fc, fg};
    }
  });
  return best;
}

Seconds CoRunPredictor::min_corun_time(const PairCells& cells,
                                       sim::DeviceKind device,
                                       std::optional<Watts> cap,
                                       bool include_floor_pair) const {
  // Exact cap: the minimum feeds admissible lower bounds, where serving a
  // neighbouring cap's value would silently change pruning decisions.
  const SearchKey key =
      SearchKey::of(cells.block, cap,
                    (device == sim::DeviceKind::kCpu ? 2 : 0) +
                        (include_floor_pair ? 1 : 0));
  {
    const std::lock_guard<std::mutex> lock(pair_cache_mutex_);
    if (const auto it = corun_min_cache_.find(key);
        it != corun_min_cache_.end()) {
      return it->second;
    }
  }
  const Seconds best =
      scan_min_corun_time(cells, device, cap, include_floor_pair);
  {
    const std::lock_guard<std::mutex> lock(pair_cache_mutex_);
    corun_min_cache_.emplace(key, best);
  }
  return best;
}

std::optional<FreqPair> CoRunPredictor::best_pair_weighted(
    const PairCells& cells, std::optional<Watts> cap, int bucket) const {
  // The cap keys exactly: feasibility is tested against it.
  const SearchKey key = SearchKey::of(cells.block, cap, bucket);
  {
    const std::lock_guard<std::mutex> lock(pair_cache_mutex_);
    if (const auto it = pair_cache_.find(key); it != pair_cache_.end()) {
      return it->second;
    }
  }
  const std::optional<FreqPair> best =
      scan_best_pair_weighted(cells, cap, bucket);
  {
    const std::lock_guard<std::mutex> lock(pair_cache_mutex_);
    pair_cache_.emplace(key, best);
  }
  return best;
}

Seconds CoRunPredictor::min_corun_time(const std::string& job,
                                       sim::DeviceKind device,
                                       const std::string& partner,
                                       std::optional<Watts> cap,
                                       bool include_floor_pair) const {
  return min_corun_time(device == sim::DeviceKind::kCpu
                            ? pair_cells(job, partner)
                            : pair_cells(partner, job),
                        device, cap, include_floor_pair);
}

std::optional<FreqPair> CoRunPredictor::best_pair_min_makespan(
    const std::string& cpu_job, const std::string& gpu_job,
    std::optional<Watts> cap) const {
  return best_pair_weighted(cpu_job, gpu_job, cap, 1.0, 1.0);
}

std::optional<FreqPair> CoRunPredictor::best_pair_weighted(
    const std::string& cpu_job, const std::string& gpu_job,
    std::optional<Watts> cap, double cpu_weight, double gpu_weight) const {
  return best_pair_weighted(pair_cells(cpu_job, gpu_job), cap,
                            weight_bucket(cpu_weight, gpu_weight));
}

std::optional<FreqPair> CoRunPredictor::best_pair_min_degradation(
    const std::string& cpu_job, const std::string& gpu_job,
    std::optional<Watts> cap) const {
  return best_pair_min_degradation(pair_cells(cpu_job, gpu_job), cap);
}

}  // namespace corun::model
