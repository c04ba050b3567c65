// CoRunPredictor: the façade the scheduling algorithms consume.
//
// Combines the three information sources of Sec. V into one query surface:
//   - standalone profiles (time / bandwidth / power per job, device, level),
//     linearly interpolated across frequency when the DB was sub-sampled;
//   - the staged interpolator over the micro-benchmark degradation space;
//   - the standalone-sum power predictor.
// Everything the heuristic scheduler, the refinement pass, and the lower
// bound need — feasible frequency enumeration under a cap, best solo
// operating points, best co-run frequency pairs — lives here.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "corun/common/units.hpp"
#include "corun/core/model/interpolator.hpp"
#include "corun/profile/profile_db.hpp"
#include "corun/sim/machine.hpp"

namespace corun::model {

/// Evaluation-backend knobs for the predictor.
struct PredictorOptions {
  /// Answer the point queries (standalone_*, predict, predict_power) and
  /// the searches (best_*, min_corun_time) from dense cap-independent
  /// tables — the analytic evaluation fast path the schedulers lean on.
  /// The table cells are computed by the exact legacy arithmetic (entry_at
  /// + staged interpolation), so every answer is byte-identical to the
  /// on-demand path; the toggle exists so the equivalence tests and the
  /// fidelity bench can run both sides of that equality.
  bool analytic_tables = true;
};

/// A CPU/GPU frequency operating point.
struct FreqPair {
  sim::FreqLevel cpu = 0;
  sim::FreqLevel gpu = 0;

  friend bool operator==(const FreqPair&, const FreqPair&) = default;
};

/// Full prediction for one co-running pair at one operating point.
struct PairPrediction {
  double cpu_degradation = 0.0;  ///< fractional slowdown of the CPU job
  double gpu_degradation = 0.0;
  Seconds cpu_solo_time = 0.0;   ///< standalone time at the pair's levels
  Seconds gpu_solo_time = 0.0;
  Seconds cpu_time = 0.0;        ///< solo * (1 + degradation): pure co-run rate
  Seconds gpu_time = 0.0;
  Watts power = 0.0;             ///< predicted package power of the co-run
};

/// One job's row on one device, resolved once by CoRunPredictor::row so
/// that repeated queries about the job hash no name. With the tables on,
/// `entries` points at the row's table entries; with them off, or for a
/// job the DB has no profiles for on this device, the row-keyed queries
/// answer by name through the on-demand path (which reports a missing
/// profile). Valid while the predictor and the name it points to live.
struct JobRow {
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  const std::string* job = nullptr;
  sim::DeviceKind device = sim::DeviceKind::kCpu;
  std::size_t index = kNoRow;  ///< row in the device's index; kNoRow: none
  const profile::ProfileEntry* entries = nullptr;  ///< [level], tables only

  [[nodiscard]] bool profiled() const noexcept { return index != kNoRow; }
};

class CoRunPredictor {
 public:
  /// `db` must outlive the predictor — and must not be mutated while the
  /// predictor is live (the analytic tables and the pair-search memos both
  /// snapshot DB-derived values; every caller that mutates its DB already
  /// rebuilds its predictor, see DynamicRuntime::rebuild_predictor).
  explicit CoRunPredictor(const profile::ProfileDB& db, DegradationGrid grid,
                          sim::MachineConfig config,
                          PredictorOptions options = {});

  /// Copy-view: a second predictor over the same DB/grid/machine with
  /// different evaluation options and fresh caches. Lets a caller opt out
  /// of the analytic tables without re-profiling.
  CoRunPredictor(const CoRunPredictor& other, PredictorOptions options);

  ~CoRunPredictor();

  // --- standalone quantities (frequency-interpolated when sub-sampled) ---
  [[nodiscard]] Seconds standalone_time(const std::string& job,
                                        sim::DeviceKind device,
                                        sim::FreqLevel level) const;
  [[nodiscard]] Watts standalone_power(const std::string& job,
                                       sim::DeviceKind device,
                                       sim::FreqLevel level) const;

  // --- co-run prediction ---
  [[nodiscard]] PairPrediction predict(const std::string& cpu_job,
                                       sim::FreqLevel cpu_level,
                                       const std::string& gpu_job,
                                       sim::FreqLevel gpu_level) const;
  [[nodiscard]] Watts predict_power(const std::string& cpu_job,
                                    sim::FreqLevel cpu_level,
                                    const std::string& gpu_job,
                                    sim::FreqLevel gpu_level) const;

  // --- power-cap feasibility ---
  /// Fastest cap-feasible standalone operating point; nullopt if even the
  /// lowest level breaks the cap.
  [[nodiscard]] std::optional<sim::FreqLevel> best_solo_level(
      const std::string& job, sim::DeviceKind device,
      std::optional<Watts> cap) const;
  [[nodiscard]] Seconds best_solo_time(const std::string& job,
                                       sim::DeviceKind device,
                                       std::optional<Watts> cap) const;

  /// Minimum predicted `device`-side co-run time of `job` against
  /// `partner`, over every cap-feasible frequency pair — the least
  /// interference `partner` can inflict on `job` under the cap. With
  /// `include_floor_pair` the floor pair participates even when it
  /// violates the cap (the governor's tolerated last resort), which the
  /// search's admissible occupancy bound requires. Infinity when the
  /// candidate set is empty. Memoized across calls.
  [[nodiscard]] Seconds min_corun_time(const std::string& job,
                                       sim::DeviceKind device,
                                       const std::string& partner,
                                       std::optional<Watts> cap,
                                       bool include_floor_pair) const;

  /// Best cap-feasible frequency pair for a co-run, minimizing the pair's
  /// predicted completion bound max(cpu_time, gpu_time). nullopt when no
  /// pair is feasible.
  [[nodiscard]] std::optional<FreqPair> best_pair_min_makespan(
      const std::string& cpu_job, const std::string& gpu_job,
      std::optional<Watts> cap) const;

  /// Backlog-weighted pair selection: minimizes
  ///   max(cpu_weight * cpu_time, gpu_weight * gpu_time).
  /// The weights encode how much work queues behind each side (in multiples
  /// of the current job), so a device with a deep backlog keeps its share of
  /// the power budget instead of being throttled to balance one pair in
  /// isolation. Weights of 1 reduce to best_pair_min_makespan.
  [[nodiscard]] std::optional<FreqPair> best_pair_weighted(
      const std::string& cpu_job, const std::string& gpu_job,
      std::optional<Watts> cap, double cpu_weight, double gpu_weight) const;

  /// Best cap-feasible pair minimizing the summed degradations — the
  /// literal criterion of Sec. IV-A.2 step 3 (ablation comparator).
  [[nodiscard]] std::optional<FreqPair> best_pair_min_degradation(
      const std::string& cpu_job, const std::string& gpu_job,
      std::optional<Watts> cap) const;

  // --- row-keyed queries ---
  //
  // The name-keyed queries above are one-line wrappers over these, so each
  // query and search has one implementation. A planner resolves its jobs
  // once (row) and then queries without hashing a name.

  /// A (CPU job, GPU job) pair resolved for cell reads: its table block,
  /// or with the tables off the two names the on-demand path reads.
  struct PairCells {
    const CoRunPredictor* self = nullptr;
    const std::string* cpu_job = nullptr;
    const std::string* gpu_job = nullptr;
    std::size_t block = 0;  ///< cpu row * gpu rows + gpu row
    sim::FreqLevel cpu_max = 0;
    sim::FreqLevel gpu_max = 0;
    const PairPrediction* table = nullptr;  ///< nullptr: tables off

    /// The cell at two ladder levels.
    [[nodiscard]] PairPrediction at(sim::FreqLevel cpu_level,
                                    sim::FreqLevel gpu_level) const {
      if (table != nullptr) {
        return table[static_cast<std::size_t>(cpu_level) *
                         static_cast<std::size_t>(gpu_max + 1) +
                     static_cast<std::size_t>(gpu_level)];
      }
      return self->predict_legacy(*cpu_job, cpu_level, *gpu_job, gpu_level);
    }

    /// Calls fn(cpu level, gpu level, cell) for every cell, CPU level
    /// outer — the searches' scan order, which is the block's layout —
    /// counting one table hit per scan.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      if (table != nullptr) {
        self->count_analytic_hit();
        const PairPrediction* cell = table;
        for (sim::FreqLevel fc = 0; fc <= cpu_max; ++fc) {
          for (sim::FreqLevel fg = 0; fg <= gpu_max; ++fg) fn(fc, fg, *cell++);
        }
        return;
      }
      for (sim::FreqLevel fc = 0; fc <= cpu_max; ++fc) {
        for (sim::FreqLevel fg = 0; fg <= gpu_max; ++fg) {
          fn(fc, fg, at(fc, fg));
        }
      }
    }
  };

  /// Resolves `job`'s row on `device`. Never fails: an unprofiled job
  /// yields a row whose queries report the missing profile.
  [[nodiscard]] JobRow row(const std::string& job,
                           sim::DeviceKind device) const;
  /// The pair's cells; both rows must be profiled (CPU and GPU rows).
  [[nodiscard]] PairCells pair(const JobRow& cpu, const JobRow& gpu) const;

  [[nodiscard]] Seconds standalone_time(const JobRow& row,
                                        sim::FreqLevel level) const;
  [[nodiscard]] Watts standalone_power(const JobRow& row,
                                       sim::FreqLevel level) const;
  [[nodiscard]] PairPrediction predict(const JobRow& cpu,
                                       sim::FreqLevel cpu_level,
                                       const JobRow& gpu,
                                       sim::FreqLevel gpu_level) const;
  /// predict() of a resolved pair: a caller that queries one pair many
  /// times resolves it once.
  [[nodiscard]] PairPrediction predict(const PairCells& cells,
                                       sim::FreqLevel cpu_level,
                                       sim::FreqLevel gpu_level) const;
  [[nodiscard]] Watts predict_power(const JobRow& cpu, sim::FreqLevel cpu_level,
                                    const JobRow& gpu,
                                    sim::FreqLevel gpu_level) const;
  /// Fastest cap-feasible standalone level and its time, scanning the
  /// row's entries; nullopt if even the lowest level breaks the cap.
  [[nodiscard]] std::optional<std::pair<sim::FreqLevel, Seconds>> best_solo(
      const JobRow& row, std::optional<Watts> cap) const;

  /// The weight-ratio bucket best_pair_weighted searches at: log2 of
  /// gpu_weight / cpu_weight in quarter-octaves, clamped to +-6 octaves, so
  /// in [-kWeightBuckets/2, kWeightBuckets/2]. The bucket, not the exact
  /// ratio, decides which pair is chosen.
  static constexpr int kWeightBuckets = 49;
  [[nodiscard]] static int weight_bucket(double cpu_weight, double gpu_weight);

  /// The searches of the name-keyed methods above. The backlog-weighted
  /// search (at a weight bucket) and the min-co-run search are memoized
  /// per predictor, keyed by the pair's block, the exact cap and the
  /// bucket or side, so repeated plans over the same pairs and caps (a
  /// serving daemon's requests, a cap ladder) share their answers.
  [[nodiscard]] std::optional<FreqPair> best_pair_weighted(
      const PairCells& cells, std::optional<Watts> cap, int bucket) const;
  [[nodiscard]] Seconds min_corun_time(const PairCells& cells,
                                       sim::DeviceKind device,
                                       std::optional<Watts> cap,
                                       bool include_floor_pair) const;
  [[nodiscard]] std::optional<FreqPair> best_pair_min_degradation(
      const PairCells& cells, std::optional<Watts> cap) const;

  [[nodiscard]] const profile::ProfileDB& db() const noexcept { return db_; }
  [[nodiscard]] const StagedInterpolator& interpolator() const noexcept {
    return interp_;
  }
  [[nodiscard]] const sim::MachineConfig& machine() const noexcept {
    return config_;
  }
  [[nodiscard]] const PredictorOptions& options() const noexcept {
    return options_;
  }

 private:
  /// Built once on first query and published through an acquire/release
  /// pointer, so the parallel schedule searches race-freely share it. It
  /// holds the job rows every search resolves its names to (on both paths:
  /// the search memos key on them) and, with options_.analytic_tables, the
  /// dense cap-independent tables — one ProfileEntry per profiled (job,
  /// device, level), filled eagerly, and one pair block of PairPredictions
  /// per (cpu job, gpu job), covering every (cpu level, gpu level) cell,
  /// filled on first use.
  struct Core;

  /// Memo key of one pair search: the pair's block, the exact cap (its
  /// bits, so caps a hair apart never share an answer) and the search's own
  /// discriminator (the weight-ratio bucket, or the side and floor flag).
  struct SearchKey {
    std::size_t block = 0;
    std::uint64_t cap_bits = 0;
    bool capped = false;
    int variant = 0;

    [[nodiscard]] static SearchKey of(std::size_t block,
                                      std::optional<Watts> cap, int variant);
    friend bool operator==(const SearchKey&, const SearchKey&) = default;
  };
  struct SearchKeyHash {
    [[nodiscard]] std::size_t operator()(const SearchKey& key) const noexcept;
  };

  [[nodiscard]] Core& core() const;
  [[nodiscard]] std::unique_ptr<Core> build_core() const;
  /// The block of `block` = cpu row * gpu rows + gpu row, filled on first
  /// use.
  [[nodiscard]] const PairPrediction* pair_block(Core& core,
                                                 std::size_t block) const;
  /// Both names' rows resolved, then pair().
  [[nodiscard]] PairCells pair_cells(const std::string& cpu_job,
                                     const std::string& gpu_job) const;
  /// True when `level` has a table entry on the row's device.
  [[nodiscard]] bool in_table(const JobRow& row,
                              sim::FreqLevel level) const noexcept;
  /// The memoized searches' scans.
  [[nodiscard]] std::optional<FreqPair> scan_best_pair_weighted(
      const PairCells& cells, std::optional<Watts> cap, int bucket) const;
  [[nodiscard]] Seconds scan_min_corun_time(const PairCells& cells,
                                            sim::DeviceKind device,
                                            std::optional<Watts> cap,
                                            bool include_floor_pair) const;
  void count_analytic_hit() const;

  /// Linear interpolation of a profiled quantity across frequency.
  [[nodiscard]] profile::ProfileEntry entry_at(const std::string& job,
                                               sim::DeviceKind device,
                                               sim::FreqLevel level) const;
  /// One cell from its two entries and their grid-axis positions: the
  /// single implementation of the co-run arithmetic, shared by the legacy
  /// path and the table fill.
  [[nodiscard]] PairPrediction combine(const profile::ProfileEntry& cpu,
                                       AxisPos cpu_pos,
                                       const profile::ProfileEntry& gpu,
                                       AxisPos gpu_pos) const;
  /// The on-demand (table-free) prediction of one cell.
  [[nodiscard]] PairPrediction predict_legacy(const std::string& cpu_job,
                                              sim::FreqLevel cpu_level,
                                              const std::string& gpu_job,
                                              sim::FreqLevel gpu_level) const;

  const profile::ProfileDB& db_;
  StagedInterpolator interp_;
  sim::MachineConfig config_;
  PredictorOptions options_;

  mutable std::mutex core_mutex_;
  mutable std::unique_ptr<Core> core_storage_;
  mutable std::atomic<Core*> core_{nullptr};
  mutable std::atomic<std::uint64_t> analytic_hits_{0};

  // Memoization of the pair searches across calls: the runtimes issue them
  // on every change of the running set, and a planner's per-plan memo
  // (sched::PlanView) falls back here on its first query of a key. Only
  // the weight *ratio* affects the argmin (scaling both weights scales the
  // whole metric), so the pair cache keys on its bucket. Both caches are
  // pure functions of their keys, so concurrent fills always agree on the
  // value; the mutex only protects the map structure (lookups and inserts
  // are brief, the search itself runs unlocked and may rarely be
  // duplicated).
  mutable std::mutex pair_cache_mutex_;
  mutable std::unordered_map<SearchKey, std::optional<FreqPair>, SearchKeyHash>
      pair_cache_;
  mutable std::unordered_map<SearchKey, Seconds, SearchKeyHash>
      corun_min_cache_;
};

}  // namespace corun::model
