#include "corun/core/sched/plan_view.hpp"

#include <cmath>
#include <limits>

#include "corun/common/trace/trace.hpp"

namespace corun::sched {
namespace {

constexpr int kBuckets = model::CoRunPredictor::kWeightBuckets;
constexpr int kHalfBuckets = kBuckets / 2;

/// A pair answer packed as (cpu level << 8 | gpu level); the two top codes
/// are markers no level pair can take (the constructor checks the ladders).
constexpr std::uint16_t kUnfilled = 0xFFFF;
constexpr std::uint16_t kNoPair = 0xFFFE;

std::uint16_t encode(const std::optional<model::FreqPair>& pair) {
  if (!pair) return kNoPair;
  return static_cast<std::uint16_t>(pair->cpu << 8 | pair->gpu);
}

std::optional<model::FreqPair> decode(std::uint16_t code) {
  if (code == kNoPair) return std::nullopt;
  return model::FreqPair{code >> 8, code & 0xFF};
}

}  // namespace

PlanView::PlanView(const SchedulerContext& ctx)
    : ctx_(&ctx), model_(&ctx.model()) {
  CORUN_TRACE_SPAN("sched", "plan_view.build");
  const sim::MachineConfig& mc = model_->machine();
  CORUN_CHECK(mc.cpu_ladder.max_level() < 0xFF &&
              mc.gpu_ladder.max_level() <= 0xFF);
  const std::size_t n = ctx.jobs().size();
  jobs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Handle& h = jobs_[i];
    for (const sim::DeviceKind d :
         {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
      const int k = slot(d);
      h.row[k] = model_->row(ctx.job_name(i), d);
      if (!h.row[k].profiled()) continue;
      h.t_max[k] = model_->standalone_time(h.row[k], mc.ladder(d).max_level());
      const auto best = model_->best_solo(h.row[k], ctx.cap);
      if (best) h.best_level[k] = best->first;
      h.best_time[k] =
          best ? best->second : std::numeric_limits<Seconds>::infinity();
    }
  }
}

const model::CoRunPredictor::PairCells& PlanView::pair(
    std::size_t cpu_job, std::size_t gpu_job) const {
  const std::size_t n = size();
  if (pairs_.empty()) pairs_.resize(n * n);
  model::CoRunPredictor::PairCells& cells = pairs_[cpu_job * n + gpu_job];
  if (cells.self == nullptr) {
    cells = model_->pair(handle(cpu_job).row[0], handle(gpu_job).row[1]);
  }
  return cells;
}

std::optional<model::FreqPair> PlanView::best_pair_weighted(
    std::size_t cpu_job, std::size_t gpu_job, double cpu_weight,
    double gpu_weight) const {
  const int bucket =
      model::CoRunPredictor::weight_bucket(cpu_weight, gpu_weight);
  if (bucket < -kHalfBuckets || bucket > kHalfBuckets) {
    // Only a NaN ratio lands outside the clamp; it has no memo slot.
    return model_->best_pair_weighted(pair(cpu_job, gpu_job), ctx_->cap,
                                      bucket);
  }
  const std::size_t n = size();
  if (pair_memo_.empty()) {
    pair_memo_.assign(n * n * static_cast<std::size_t>(kBuckets), kUnfilled);
  }
  std::uint16_t& code =
      pair_memo_[(cpu_job * n + gpu_job) * static_cast<std::size_t>(kBuckets) +
                 static_cast<std::size_t>(bucket + kHalfBuckets)];
  if (code == kUnfilled) {
    code = encode(
        model_->best_pair_weighted(pair(cpu_job, gpu_job), ctx_->cap, bucket));
  }
  return decode(code);
}

std::optional<model::FreqPair> PlanView::best_pair_min_degradation(
    std::size_t cpu_job, std::size_t gpu_job) const {
  return model_->best_pair_min_degradation(pair(cpu_job, gpu_job), ctx_->cap);
}

Seconds PlanView::min_corun_time(std::size_t job, sim::DeviceKind device,
                                 std::size_t partner,
                                 bool include_floor_pair) const {
  const std::size_t n = size();
  if (corun_min_memo_.empty()) {
    corun_min_memo_.assign(n * n * 4,
                           std::numeric_limits<Seconds>::quiet_NaN());
  }
  // A minimum over cell times is never NaN, so NaN marks an empty slot.
  Seconds& t = corun_min_memo_[(job * n + partner) * 4 +
                               static_cast<std::size_t>(slot(device)) * 2 +
                               (include_floor_pair ? 1 : 0)];
  if (std::isnan(t)) {
    const bool on_cpu = device == sim::DeviceKind::kCpu;
    t = model_->min_corun_time(
        on_cpu ? pair(job, partner) : pair(partner, job), device, ctx_->cap,
        include_floor_pair);
  }
  return t;
}

}  // namespace corun::sched
