#include "corun/core/serve/plan_service.hpp"

#include <cstdio>
#include <exception>
#include <set>

#include "corun/core/sched/hcs.hpp"
#include "corun/core/sched/lower_bound.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/plan_cache/caching_scheduler.hpp"
#include "corun/sim/governor.hpp"

namespace corun::serve {

namespace {

/// Runs `plan_fn`, turning an exception thrown while planning into a
/// failure. A request the planners cannot plan (a cap below a job's floor
/// power, a job without profile rows) trips a contract check deep in the
/// search or the bound; it fails here, in one place, so neither the
/// daemon nor a tool goes down with it.
template <typename T, typename Fn>
Expected<T> guarded(Fn&& plan_fn) {
  try {
    return plan_fn();
  } catch (const std::exception& e) {
    return fail(std::string("cannot plan: ") + e.what(),
                ErrorCategory::kInvalidArgument);
  }
}

}  // namespace

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
          cache_ ? std::make_shared<const sched::SignatureBuilder>(predictor)
                 : nullptr) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    name_to_index_[batch.job(i).instance_name] = i;
  }
}

Expected<sched::SchedulerContext> PlanService::context(
    const PlanRequest& request, workload::Batch& sub_batch) const {
  const auto policy = sim::parse_policy(request.policy);
  if (!policy.has_value()) return policy.error();

  // Resolve the job subset. The request's job order defines the planned
  // batch order (exactly as the order of a batch CSV handed to
  // corun-schedule would), so a subset request is reproducible one-shot.
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
  ctx.policy = policy.value();
  return ctx;
}

Expected<PlanResult> PlanService::plan(const PlanRequest& request) const {
  workload::Batch sub_batch;
  const auto ctx = context(request, sub_batch);
  if (!ctx.has_value()) return ctx.error();
  auto scheduler = sched::make_cached_scheduler(
      request.scheduler, request.seed, cache_, signature_builder_);
  if (scheduler == nullptr) {
    return fail("unknown scheduler '" + request.scheduler + "'",
                ErrorCategory::kNotFound);
  }

  return guarded<PlanResult>([&] {
    PlanResult result;
    result.schedule = scheduler->plan(ctx.value());
    result.scheduler_name = scheduler->name();
    result.job_names = ctx.value().job_names();
    const sched::MakespanEvaluator evaluator(ctx.value());
    result.makespan = evaluator.makespan(result.schedule);
    result.lower_bound = sched::compute_lower_bound(ctx.value()).t_low_tight;
    result.text =
        render_plan_report(result.scheduler_name,
                           result.schedule.to_string(result.job_names),
                           result.makespan, result.lower_bound);
    return result;
  });
}

Expected<std::string> PlanService::explain(const PlanRequest& request) const {
  workload::Batch sub_batch;
  const auto ctx = context(request, sub_batch);
  if (!ctx.has_value()) return ctx.error();
  return guarded<std::string>([&] {
    sched::HcsTrace trace;
    (void)sched::HcsScheduler().plan_traced(ctx.value(), &trace);
    return trace.to_string(ctx.value().job_names());
  });
}

}  // namespace corun::serve
