// CachingScheduler: makes any registry scheduler memoized.
//
// Wraps an inner Scheduler and a shared PlanCache. plan() first consults
// the cache with the request's canonical signature: an exact hit returns
// the cached schedule (remapped to the requesting batch's indices) without
// invoking the inner search; a miss runs the inner search cold and stores
// its result.
//
// Invariant: with the cache attached, the returned schedule is always
// byte-identical to what the inner scheduler would have produced cold —
// exact hits replay the stored result of the identical request. Stochastic
// planners whose output depends on batch *order* (the "random" baseline)
// bypass the cache entirely, because the order-invariant signature would
// alias their order-sensitive results.
#pragma once

#include <memory>
#include <string>

#include "corun/core/sched/plan_cache/plan_cache.hpp"
#include "corun/core/sched/scheduler.hpp"

namespace corun::sched {

class CachingScheduler : public Scheduler {
 public:
  /// `registry_id` and `seed` identify the inner algorithm in signatures;
  /// a null `cache` degrades to a plain pass-through.
  CachingScheduler(std::unique_ptr<Scheduler> inner,
                   std::shared_ptr<PlanCache> cache, std::string registry_id,
                   std::uint64_t seed);

  [[nodiscard]] Schedule plan(const SchedulerContext& ctx) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] const PlanCache* cache() const noexcept {
    return cache_.get();
  }

  /// The wrapped algorithm, for callers that inspect planner-specific
  /// state after plan() (e.g. B&B budget exhaustion). On an exact cache
  /// hit the inner planner did not run for the last request — check
  /// last_exact_hit() before trusting its per-plan accessors, which would
  /// otherwise report a *previous* request's search.
  [[nodiscard]] const Scheduler* inner() const noexcept {
    return inner_.get();
  }

  /// True when the last plan() was served from the cache without running
  /// the inner planner.
  [[nodiscard]] bool last_exact_hit() const noexcept {
    return last_exact_hit_;
  }

  /// Installs an amortized signature builder (see signature.hpp). The
  /// serving daemon shares one builder across all request schedulers so
  /// the per-request signature cost is string assembly, not re-digesting
  /// the model artifacts. Signatures are byte-identical either way.
  void set_signature_builder(std::shared_ptr<const SignatureBuilder> builder) {
    signature_builder_ = std::move(builder);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
  std::shared_ptr<PlanCache> cache_;
  std::string registry_id_;
  std::uint64_t seed_;
  bool bypass_;  ///< order-sensitive planners are never cached
  bool last_exact_hit_ = false;
  std::shared_ptr<const SignatureBuilder> signature_builder_;
};

/// Registry convenience: constructs the named scheduler and, when `cache`
/// is non-null, wraps it so its plans are memoized. Returns nullptr for
/// unknown names (same contract as make_scheduler).
[[nodiscard]] std::unique_ptr<Scheduler> make_cached_scheduler(
    const std::string& name, std::uint64_t seed,
    std::shared_ptr<PlanCache> cache);

}  // namespace corun::sched
