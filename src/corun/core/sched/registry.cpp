#include "corun/core/sched/registry.hpp"

#include <string>

#include "corun/core/sched/branch_and_bound.hpp"
#include "corun/core/sched/default_scheduler.hpp"
#include "corun/core/sched/exhaustive.hpp"
#include "corun/core/sched/hcs.hpp"
#include "corun/core/sched/random_scheduler.hpp"
#include "corun/core/sched/refiner.hpp"
#include "corun/core/sched/thermal_scheduler.hpp"

namespace corun::sched {

std::vector<std::string> scheduler_names() {
  return {"hcs+", "hcs", "thermal", "default", "random", "bnb", "exhaustive"};
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          std::uint64_t seed) {
  if (name == "hcs+") return std::make_unique<HcsPlusScheduler>();
  if (name == "hcs") return std::make_unique<HcsScheduler>();
  if (name == "thermal") return std::make_unique<ThermalAwareScheduler>();
  if (name == "default") return std::make_unique<DefaultScheduler>();
  if (name == "random") return std::make_unique<RandomScheduler>(seed);
  if (name == "bnb") return std::make_unique<BranchAndBoundScheduler>();
  if (name == "exhaustive") return std::make_unique<ExhaustiveScheduler>();
  return nullptr;
}

}  // namespace corun::sched
