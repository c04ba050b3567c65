#include "corun/core/sched/default_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace corun::sched {

Schedule DefaultScheduler::plan(const SchedulerContext& ctx) {
  const model::CoRunPredictor& m = ctx.model();
  const std::size_t n = ctx.jobs().size();
  const sim::FreqLevel cpu_max = m.machine().cpu_ladder.max_level();
  const sim::FreqLevel gpu_max = m.machine().gpu_ladder.max_level();

  // Rank by CPU/GPU time ratio at max frequency, most GPU-leaning first.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  auto ratio = [&](std::size_t job) {
    const std::string& name = ctx.job_name(job);
    return m.standalone_time(name, sim::DeviceKind::kCpu, cpu_max) /
           m.standalone_time(name, sim::DeviceKind::kGpu, gpu_max);
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return ratio(a) > ratio(b); });

  // Split point minimizing the longer partition's summed standalone time.
  std::size_t best_split = 0;
  Seconds best_metric = std::numeric_limits<Seconds>::infinity();
  for (std::size_t split = 0; split <= n; ++split) {
    Seconds gpu_sum = 0.0;
    Seconds cpu_sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::string& name = ctx.job_name(order[k]);
      if (k < split) {
        gpu_sum += m.standalone_time(name, sim::DeviceKind::kGpu, gpu_max);
      } else {
        cpu_sum += m.standalone_time(name, sim::DeviceKind::kCpu, cpu_max);
      }
    }
    const Seconds metric = std::max(gpu_sum, cpu_sum);
    if (metric < best_metric) {
      best_metric = metric;
      best_split = split;
    }
  }

  Schedule schedule;
  schedule.cpu_batch_launch = true;
  for (std::size_t k = 0; k < n; ++k) {
    if (k < best_split) {
      schedule.gpu.push_back({order[k], gpu_max});
    } else {
      schedule.cpu.push_back({order[k], cpu_max});
    }
  }
  schedule.validate(n);
  return schedule;
}

}  // namespace corun::sched
