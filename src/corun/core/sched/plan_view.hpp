// PlanView: the context's batch resolved against its predictor once per
// plan() call.
//
// Each job becomes a handle: its CPU and GPU rows in the predictor's dense
// tables (model::JobRow), its standalone time at each device's max level,
// and its best cap-feasible solo level and time on each device at the
// context's cap. HCS, the refiner, branch-and-bound and MakespanEvaluator
// query through these handles by batch index, so planning hashes no job
// name. The backlog-weighted pair search and the min-co-run search
// memoize per view, in flat arrays indexed by (job, job, weight bucket or
// side); only a key's first query in a plan goes to the predictor's
// shared, locked memo (which carries answers across plans) or scans.
//
// A view lives inside one plan: it is built from the context plan() is
// given (never cached in the context, which callers copy and re-point at
// another predictor) and is not safe to share between threads, since its
// memos fill lazily. Every answer equals the name-keyed predictor query's,
// bit for bit; with the predictor's tables off the handles read the
// on-demand path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "corun/common/check.hpp"
#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/sched/scheduler.hpp"

namespace corun::sched {

class PlanView {
 public:
  explicit PlanView(const SchedulerContext& ctx);
  PlanView(const PlanView&) = delete;
  PlanView& operator=(const PlanView&) = delete;

  [[nodiscard]] const SchedulerContext& ctx() const noexcept { return *ctx_; }
  [[nodiscard]] const model::CoRunPredictor& model() const noexcept {
    return *model_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return jobs_.size(); }

  /// Standalone time at the device's max level: the backlog unit.
  [[nodiscard]] Seconds t_max(std::size_t job, sim::DeviceKind device) const {
    return profiled(job, device).t_max[slot(device)];
  }
  /// Best cap-feasible standalone level at the context's cap; nullopt when
  /// even the floor breaks it.
  [[nodiscard]] std::optional<sim::FreqLevel> best_solo_level(
      std::size_t job, sim::DeviceKind device) const {
    return profiled(job, device).best_level[slot(device)];
  }
  /// The time at best_solo_level; infinity when there is none.
  [[nodiscard]] Seconds best_solo_time(std::size_t job,
                                       sim::DeviceKind device) const {
    return profiled(job, device).best_time[slot(device)];
  }

  // Point queries: the predictor's row-keyed queries on the jobs' handles.
  [[nodiscard]] Seconds standalone_time(std::size_t job,
                                        sim::DeviceKind device,
                                        sim::FreqLevel level) const {
    return model_->standalone_time(handle(job).row[slot(device)], level);
  }
  [[nodiscard]] Watts standalone_power(std::size_t job, sim::DeviceKind device,
                                       sim::FreqLevel level) const {
    return model_->standalone_power(handle(job).row[slot(device)], level);
  }
  [[nodiscard]] model::PairPrediction predict(std::size_t cpu_job,
                                              sim::FreqLevel cpu_level,
                                              std::size_t gpu_job,
                                              sim::FreqLevel gpu_level) const {
    return model_->predict(pair(cpu_job, gpu_job), cpu_level, gpu_level);
  }
  [[nodiscard]] Watts predict_power(std::size_t cpu_job,
                                    sim::FreqLevel cpu_level,
                                    std::size_t gpu_job,
                                    sim::FreqLevel gpu_level) const {
    return model_->predict_power(handle(cpu_job).row[0], cpu_level,
                                 handle(gpu_job).row[1], gpu_level);
  }

  /// CoRunPredictor::best_pair_weighted at the context's cap, memoized per
  /// (CPU job, GPU job, weight bucket).
  [[nodiscard]] std::optional<model::FreqPair> best_pair_weighted(
      std::size_t cpu_job, std::size_t gpu_job, double cpu_weight,
      double gpu_weight) const;
  /// CoRunPredictor::best_pair_min_degradation at the context's cap.
  [[nodiscard]] std::optional<model::FreqPair> best_pair_min_degradation(
      std::size_t cpu_job, std::size_t gpu_job) const;
  /// CoRunPredictor::min_corun_time of `job` on `device` against
  /// `partner` at the context's cap, memoized per (job, partner, device,
  /// floor flag).
  [[nodiscard]] Seconds min_corun_time(std::size_t job, sim::DeviceKind device,
                                       std::size_t partner,
                                       bool include_floor_pair) const;

 private:
  struct Handle {
    model::JobRow row[2];  ///< [CPU, GPU]
    Seconds t_max[2] = {};
    std::optional<sim::FreqLevel> best_level[2];
    Seconds best_time[2] = {};
  };

  [[nodiscard]] static int slot(sim::DeviceKind device) noexcept {
    return device == sim::DeviceKind::kCpu ? 0 : 1;
  }
  [[nodiscard]] const Handle& handle(std::size_t job) const {
    return jobs_[job];
  }
  /// The handle, once its row on `device` is known to exist: a job the DB
  /// has no profiles for there fails as the name-keyed queries do.
  [[nodiscard]] const Handle& profiled(std::size_t job,
                                       sim::DeviceKind device) const {
    const Handle& h = jobs_[job];
    CORUN_CHECK_MSG(h.row[slot(device)].profiled(),
                    "no profiles for " + *h.row[slot(device)].job);
    return h;
  }
  /// The pair's cells, resolved on the pair's first query in the plan.
  [[nodiscard]] const model::CoRunPredictor::PairCells& pair(
      std::size_t cpu_job, std::size_t gpu_job) const;

  const SchedulerContext* ctx_;
  const model::CoRunPredictor* model_;
  std::vector<Handle> jobs_;
  /// Resolved pairs by (CPU job, GPU job), `self` null until resolved;
  /// sized on first use.
  mutable std::vector<model::CoRunPredictor::PairCells> pairs_;
  /// Encoded best_pair_weighted answers, kUnfilled until searched; sized
  /// on first use.
  mutable std::vector<std::uint16_t> pair_memo_;
  /// min_corun_time answers, NaN until searched; sized on first use.
  mutable std::vector<Seconds> corun_min_memo_;
};

}  // namespace corun::sched
