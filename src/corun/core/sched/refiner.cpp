#include "corun/core/sched/refiner.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "corun/common/check.hpp"
#include "corun/common/rng.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/core/sched/hcs.hpp"

namespace corun::sched {

Refiner::Refiner(RefinerOptions options) : options_(options) {
  CORUN_CHECK(options_.random_swap_samples >= 0);
  CORUN_CHECK(options_.cross_swap_samples >= 0);
}

Schedule Refiner::refine(const SchedulerContext& ctx, Schedule schedule) const {
  const PlanView view(ctx);
  return refine(view, std::move(schedule));
}

Schedule Refiner::refine(const PlanView& view, Schedule schedule) const {
  CORUN_TRACE_SPAN("sched", "hcs.refine");
  CORUN_CHECK_MSG(!schedule.shared_queue && !schedule.cpu_batch_launch,
                  "refinement expects a two-sequence schedule");
  const MakespanEvaluator evaluator(view);
  stats_ = RefinerStats{};
  Seconds best = evaluator.makespan(schedule);
  stats_.initial_makespan = best;

  // Every trial stops at the incumbent, since only a strict improvement is
  // kept. And between two kept moves the schedule does not change, so a
  // move names its trial schedule: one rejected since the last kept move
  // would be rejected again, and is skipped instead of replayed (the
  // random draws are taken all the same). Moves are keyed by the device's
  // position pair for a swap, by the (CPU, GPU) position pair for a
  // cross-device swap.
  const std::size_t n_cpu = schedule.cpu.size();
  const std::size_t n_gpu = schedule.gpu.size();
  std::vector<char> rejected(n_cpu * n_cpu + n_gpu * n_gpu + n_cpu * n_gpu, 0);
  auto swap_key = [&](const std::vector<ScheduledJob>* seq, std::size_t i,
                      std::size_t j) {
    if (i > j) std::swap(i, j);
    return seq == &schedule.cpu ? i * n_cpu + j
                                : n_cpu * n_cpu + i * n_gpu + j;
  };
  auto cross_key = [&](std::size_t i, std::size_t j) {
    return n_cpu * n_cpu + n_gpu * n_gpu + i * n_gpu + j;
  };
  // Replays the trial `schedule` now holds; true when it is kept.
  auto try_move = [&](std::size_t key, int& improvements) {
    const Seconds makespan = evaluator.makespan(schedule, best);
    if (makespan < best) {
      best = makespan;
      ++improvements;
      std::fill(rejected.begin(), rejected.end(), 0);
      return true;
    }
    rejected[key] = 1;
    return false;
  };

  // Pass 1: adjacent swaps along each device sequence.
  for (auto* seq : {&schedule.cpu, &schedule.gpu}) {
    for (std::size_t i = 0; i + 1 < seq->size(); ++i) {
      // Each adjacent pair comes up once here; its rejection counts for
      // the random passes.
      std::swap((*seq)[i], (*seq)[i + 1]);
      if (!try_move(swap_key(seq, i, i + 1), stats_.adjacent_improvements)) {
        std::swap((*seq)[i], (*seq)[i + 1]);
      }
    }
  }

  // Pass 2: random same-device swaps.
  Rng rng = Rng(options_.seed).fork("refiner/random");
  for (int s = 0; s < options_.random_swap_samples; ++s) {
    auto* seq = rng.chance(0.5) ? &schedule.cpu : &schedule.gpu;
    if (seq->size() < 2) continue;
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(seq->size()) - 1));
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(seq->size()) - 1));
    if (i == j) continue;
    const std::size_t key = swap_key(seq, i, j);
    if (rejected[key] != 0) continue;
    std::swap((*seq)[i], (*seq)[j]);
    if (!try_move(key, stats_.random_improvements)) {
      std::swap((*seq)[i], (*seq)[j]);
    }
  }

  // Pass 3: random cross-device swaps. The moved jobs get their best
  // cap-feasible solo level on the destination device (the evaluator's cap
  // enforcement will still adjust per pairing).
  for (int s = 0; s < options_.cross_swap_samples; ++s) {
    if (schedule.cpu.empty() || schedule.gpu.empty()) break;
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(schedule.cpu.size()) - 1));
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(schedule.gpu.size()) - 1));
    const auto cpu_level =
        view.best_solo_level(schedule.gpu[j].job, sim::DeviceKind::kCpu);
    const auto gpu_level =
        view.best_solo_level(schedule.cpu[i].job, sim::DeviceKind::kGpu);
    if (!cpu_level || !gpu_level) continue;
    const std::size_t key = cross_key(i, j);
    if (rejected[key] != 0) continue;
    const ScheduledJob old_cpu = schedule.cpu[i];
    const ScheduledJob old_gpu = schedule.gpu[j];
    schedule.cpu[i] = {old_gpu.job, *cpu_level};
    schedule.gpu[j] = {old_cpu.job, *gpu_level};
    if (!try_move(key, stats_.cross_improvements)) {
      schedule.cpu[i] = old_cpu;
      schedule.gpu[j] = old_gpu;
    }
  }

  stats_.final_makespan = best;
  CORUN_TRACE_COUNTER("refiner.adjacent_improvements",
                      stats_.adjacent_improvements);
  CORUN_TRACE_COUNTER("refiner.random_improvements",
                      stats_.random_improvements);
  CORUN_TRACE_COUNTER("refiner.cross_improvements",
                      stats_.cross_improvements);
  return schedule;
}

HcsPlusScheduler::HcsPlusScheduler(RefinerOptions options)
    : options_(options) {}

Schedule HcsPlusScheduler::plan(const SchedulerContext& ctx) {
  const PlanView view(ctx);
  return plan(view);
}

Schedule HcsPlusScheduler::plan(const PlanView& view) {
  HcsScheduler hcs;
  const Refiner refiner(options_);
  return refiner.refine(view, hcs.plan_traced(view, nullptr));
}

}  // namespace corun::sched
