// PlanService: the one-shot planning path of corun-schedule, corun-run's
// static mode and the serving daemon.
//
// The service owns nothing heavy — it references the artifacts a daemon
// loads once at startup (batch, predictor) and shares the plan cache. Per
// request it constructs the requested registry scheduler (memoized through
// the shared PlanCache when one is attached), plans, evaluates the
// predicted makespan and the lower bound, and renders the canonical report
// text. Every caller goes through plan() and prints `PlanResult::text`, so
// a daemon response is byte-identical to a `corun-schedule` run over the
// same artifacts by construction, not by convention.
//
// Thread safety: `plan()` is const and safe to call concurrently — the
// referenced artifacts are immutable, the signature builder is immutable,
// and the plan cache is internally synchronized. Each call
// builds its own scheduler instance; schedulers are not shared between
// requests.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "corun/common/expected.hpp"
#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/sched/plan_cache/plan_cache.hpp"
#include "corun/core/serve/protocol.hpp"
#include "corun/workload/batch.hpp"

namespace corun::serve {

/// Everything a planned request produces; `text` is what goes on the wire.
struct PlanResult {
  sched::Schedule schedule;
  std::string scheduler_name;           ///< presentation name ("HCS+", ...)
  std::vector<std::string> job_names;   ///< planned batch order
  Seconds makespan = 0.0;
  Seconds lower_bound = 0.0;
  std::string text;                     ///< canonical report rendering
};

/// The canonical report text (corun-schedule's stdout for a plain run):
///   scheduler: <name>
///   plan:      <one-line-per-device rendering>
///   predicted makespan: %.2f s
///   lower bound:        %.2f s
[[nodiscard]] std::string render_plan_report(const std::string& scheduler_name,
                                             const std::string& plan_text,
                                             Seconds makespan,
                                             Seconds lower_bound);

class PlanService {
 public:
  /// `batch` and `predictor` must outlive the service; `cache` may be null
  /// (planning stays correct, every request pays a full search).
  PlanService(const workload::Batch& batch,
              const model::CoRunPredictor& predictor,
              std::shared_ptr<sched::PlanCache> cache);

  /// Plans one request. Fails (kNotFound / kInvalidArgument) on an unknown
  /// scheduler, an unknown policy or a job name outside the loaded batch,
  /// and on a request the planners cannot plan: a cap below a job's floor
  /// power, a job without profile rows. Each failure becomes an `error`
  /// response in the daemon and one `error:` line in the tools, never a
  /// crash.
  [[nodiscard]] Expected<PlanResult> plan(const PlanRequest& request) const;

  /// The HCS decision trace of the request's batch, cap and policy,
  /// whatever its scheduler: a separate HcsScheduler::plan_traced run, so a
  /// plan cache never hides it. Fails as plan() does.
  [[nodiscard]] Expected<std::string> explain(const PlanRequest& request) const;

  [[nodiscard]] const workload::Batch& batch() const noexcept {
    return *batch_;
  }
  [[nodiscard]] const sched::PlanCache* cache() const noexcept {
    return cache_.get();
  }

 private:
  const workload::Batch* batch_;
  const model::CoRunPredictor* predictor_;
  std::shared_ptr<sched::PlanCache> cache_;
  std::shared_ptr<const sched::SignatureBuilder> signature_builder_;
  std::map<std::string, std::size_t> name_to_index_;  ///< batch instances

  /// The request's planning context. A job subset is copied into
  /// `sub_batch`, which the context then points to.
  [[nodiscard]] Expected<sched::SchedulerContext> context(
      const PlanRequest& request, workload::Batch& sub_batch) const;
};

}  // namespace corun::serve
