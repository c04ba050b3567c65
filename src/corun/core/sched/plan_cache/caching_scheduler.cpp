#include "corun/core/sched/plan_cache/caching_scheduler.hpp"

#include <utility>
#include <vector>

#include "corun/common/check.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/core/sched/registry.hpp"

namespace corun::sched {

namespace {

class CachingScheduler : public Scheduler {
 public:
  /// `registry_id` identifies the inner algorithm in signatures.
  CachingScheduler(std::unique_ptr<Scheduler> inner,
                   std::shared_ptr<PlanCache> cache, std::string registry_id,
                   std::shared_ptr<const SignatureBuilder> builder)
      : inner_(std::move(inner)),
        cache_(std::move(cache)),
        registry_id_(std::move(registry_id)),
        builder_(std::move(builder)) {
    CORUN_CHECK(inner_ != nullptr && cache_ != nullptr);
  }

  [[nodiscard]] Schedule plan(const SchedulerContext& ctx) override {
    CORUN_TRACE_SPAN("sched", "plan_cache.plan");
    // Every cached registry planner is deterministic and ignores its seed
    // ("random", the one seed-sensitive baseline, is never wrapped), so the
    // seed is pinned to 0 in the signature: dynamic re-plans derive a fresh
    // seed per event, and keying on it would split identical sub-problems
    // into distinct cache lines. The signature, the lookup and the store
    // each get a nested span, so the cache's own cost splits from the
    // inner planner's.
    const PlanSignature sig = [&] {
      CORUN_TRACE_SPAN("sched", "plan_cache.signature");
      return builder_ ? builder_->build(ctx, registry_id_, 0)
                      : make_signature(ctx, registry_id_, 0);
    }();
    const std::vector<std::string> batch_names = ctx.job_names();
    {
      CORUN_TRACE_SPAN("sched", "plan_cache.lookup");
      if (auto hit = cache_->lookup(sig, batch_names)) return std::move(*hit);
    }
    Schedule planned = inner_->plan(ctx);
    CORUN_TRACE_SPAN("sched", "plan_cache.store");
    cache_->store(sig, planned, batch_names);
    return planned;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Scheduler> inner_;
  std::shared_ptr<PlanCache> cache_;
  std::string registry_id_;
  std::shared_ptr<const SignatureBuilder> builder_;
};

}  // namespace

std::unique_ptr<Scheduler> make_cached_scheduler(
    const std::string& name, std::uint64_t seed,
    std::shared_ptr<PlanCache> cache,
    std::shared_ptr<const SignatureBuilder> builder) {
  auto inner = make_scheduler(name, seed);
  if (inner == nullptr || cache == nullptr || name == "random") return inner;
  return std::make_unique<CachingScheduler>(
      std::move(inner), std::move(cache), name, std::move(builder));
}

}  // namespace corun::sched
