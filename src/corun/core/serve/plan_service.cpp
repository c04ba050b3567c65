#include "corun/core/serve/plan_service.hpp"

#include <cstdio>
#include <set>

#include "corun/core/sched/lower_bound.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/plan_cache/caching_scheduler.hpp"
#include "corun/sim/governor.hpp"

namespace corun::serve {

std::string render_plan_report(const std::string& scheduler_name,
                               const std::string& plan_text, Seconds makespan,
                               Seconds lower_bound) {
  std::string out;
  out += "scheduler: " + scheduler_name + "\n";
  out += "plan:      " + plan_text + "\n";
  char line[64];
  std::snprintf(line, sizeof(line), "predicted makespan: %.2f s\n", makespan);
  out += line;
  std::snprintf(line, sizeof(line), "lower bound:        %.2f s\n",
                lower_bound);
  out += line;
  return out;
}

PlanService::PlanService(const workload::Batch& batch,
                         const model::CoRunPredictor& predictor,
                         std::shared_ptr<sched::PlanCache> cache)
    : batch_(&batch),
      predictor_(&predictor),
      cache_(std::move(cache)),
      signature_builder_(
          std::make_shared<const sched::SignatureBuilder>(predictor)) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    name_to_index_[batch.job(i).instance_name] = i;
  }
}

Expected<PlanResult> PlanService::plan(const PlanRequest& request) const {
  if (request.policy != "gpu" && request.policy != "cpu") {
    return fail("unknown policy '" + request.policy + "' (gpu|cpu)",
                ErrorCategory::kInvalidArgument);
  }

  // Resolve the job subset. The request's job order defines the planned
  // batch order (exactly as the order of a batch CSV handed to
  // corun-schedule would), so a subset request is reproducible one-shot.
  workload::Batch sub_batch;
  const workload::Batch* planned_batch = batch_;
  if (!request.jobs.empty()) {
    std::set<std::string> seen;
    for (const std::string& name : request.jobs) {
      const auto it = name_to_index_.find(name);
      if (it == name_to_index_.end()) {
        return fail("unknown job '" + name + "' in request",
                    ErrorCategory::kNotFound);
      }
      if (!seen.insert(name).second) {
        return fail("duplicate job '" + name + "' in request",
                    ErrorCategory::kInvalidArgument);
      }
      // The planners know jobs by name only; the lowered spec is copied,
      // not rebuilt.
      sub_batch.add(batch_->job(it->second));
    }
    planned_batch = &sub_batch;
  }

  sched::SchedulerContext ctx;
  ctx.batch = planned_batch;
  ctx.predictor = predictor_;
  ctx.cap = request.cap;
  ctx.policy = request.policy == "cpu" ? sim::GovernorPolicy::kCpuBiased
                                       : sim::GovernorPolicy::kGpuBiased;

  auto scheduler = sched::make_cached_scheduler(
      request.scheduler, request.seed, cache_, signature_builder_);
  if (scheduler == nullptr) {
    return fail("unknown scheduler '" + request.scheduler + "'",
                ErrorCategory::kNotFound);
  }

  PlanResult result;
  result.schedule = scheduler->plan(ctx);
  result.scheduler_name = scheduler->name();
  result.job_names = ctx.job_names();
  const sched::MakespanEvaluator evaluator(ctx);
  result.makespan = evaluator.makespan(result.schedule);
  result.lower_bound = sched::compute_lower_bound(ctx).t_low_tight;
  result.text =
      render_plan_report(result.scheduler_name,
                         result.schedule.to_string(result.job_names),
                         result.makespan, result.lower_bound);
  return result;
}

}  // namespace corun::serve
