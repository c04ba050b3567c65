// corun-schedule: plan a power-capped co-schedule from the offline
// artifacts and print it with its predicted makespan and the lower bound.
//
//   corun-schedule --batch batch.csv --profiles profiles.csv --grid grid.csv
//                  [--cap 15] [--scheduler hcs+|hcs|default|random|bnb]
//                  [--policy gpu|cpu] [--seed 42]
#include <cstdio>
#include <sstream>

#include "corun/core/serve/plan_service.hpp"
#include "tool_io.hpp"

namespace {

int run(const corun::tools::Tool& tool) {
  using namespace corun;
  const Flags& f = tool.flags;
  const serve::PlanRequest request = tools::read_plan_request(f);
  if (f.has("explain") && request.scheduler != "hcs") {
    return tool.usage_error("--explain needs --scheduler hcs");
  }
  const auto artifacts = tools::load_artifacts(f);
  if (!artifacts.has_value()) {
    return tool.usage_error(artifacts.error().message);
  }
  const model::CoRunPredictor predictor(
      artifacts.value().db, artifacts.value().grid, sim::ivy_bridge());

  // The daemon plans and renders through the same service, so its `ok`
  // bodies are byte-identical to this stdout by construction.
  const serve::PlanService service(artifacts.value().batch, predictor,
                                   tool.plan_cache);
  const auto result = service.plan(request);
  if (!result.has_value()) return tools::run_error(result.error().message);
  std::fputs(result.value().text.c_str(), stdout);
  if (f.has("explain")) {
    const auto trace = service.explain(request);
    if (!trace.has_value()) return tools::run_error(trace.error().message);
    std::printf("\n-- decision trace --\n%s", trace.value().c_str());
  }

  if (f.has("save-plan")) {
    std::ostringstream oss;
    sched::schedule_to_csv(result.value().schedule, result.value().job_names,
                           oss);
    if (!tools::write_file(f.get("save-plan", ""), oss.str())) return 1;
    std::printf("wrote plan to %s\n", f.get("save-plan", "").c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace corun::tools;
  return run_tool(
      argc, argv,
      {.synopsis =
           "corun-schedule --batch batch.csv --profiles profiles.csv "
           "--grid grid.csv [--cap 15] "
           "[--scheduler hcs+|hcs|thermal|default|random|bnb|exhaustive] "
           "[--policy gpu|cpu] [--seed 42] [--save-plan plan.csv] "
           "[--explain]",
       .flags = {"batch", "profiles", "grid", "cap", "scheduler", "policy",
                 "seed", "save-plan"},
       .booleans = {"explain"},
       .shared = kJobs | kTrace | kPlanCache},
      run);
}
