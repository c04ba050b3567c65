#include "corun/core/sched/registry.hpp"

#include <charconv>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>

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
  if (name == "bnb") {
    // CORUN_BNB_BUDGET overrides the search's node budget — the knob the
    // CLI pipeline uses to exercise the truncated-search warning path
    // without a batch large enough to exhaust the default budget.
    // Only a whole-string positive integer counts; anything else ("1e5",
    // "12abc", "-1", "0", "") keeps the default budget.
    BranchAndBoundOptions bo;
    if (const char* env = std::getenv("CORUN_BNB_BUDGET")) {
      const std::string_view text(env);
      std::size_t budget = 0;
      const auto [end, ec] =
          std::from_chars(text.data(), text.data() + text.size(), budget);
      if (ec == std::errc() && end == text.data() + text.size() &&
          budget > 0) {
        bo.node_budget = budget;
      }
    }
    return std::make_unique<BranchAndBoundScheduler>(bo);
  }
  if (name == "exhaustive") return std::make_unique<ExhaustiveScheduler>();
  return nullptr;
}

}  // namespace corun::sched
