// Memoized registry schedulers.
//
// make_cached_scheduler wraps a registry scheduler around a shared
// PlanCache. plan() first consults the cache with the request's canonical
// signature: an exact hit returns the cached schedule (remapped to the
// requesting batch's indices) without invoking the inner search; a miss
// runs the inner search cold and stores its result.
//
// Invariant: with the cache attached, the returned schedule is always
// byte-identical to what the inner scheduler would have produced cold —
// exact hits replay the stored result of the identical request. Stochastic
// planners whose output depends on batch *order* (the "random" baseline)
// bypass the cache entirely, because the order-invariant signature would
// alias their order-sensitive results.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "corun/core/sched/plan_cache/plan_cache.hpp"
#include "corun/core/sched/plan_cache/signature.hpp"
#include "corun/core/sched/scheduler.hpp"

namespace corun::sched {

/// Registry convenience: constructs the named scheduler and, when `cache`
/// is non-null, wraps it so its plans are memoized. Returns nullptr for
/// unknown names (same contract as make_scheduler).
///
/// `builder`, when given, computes the signatures from its amortized
/// digests (see signature.hpp): the serving daemon shares one across all
/// request schedulers so the per-request signature cost is string
/// assembly, not re-digesting the model artifacts. Signatures are
/// byte-identical either way.
[[nodiscard]] std::unique_ptr<Scheduler> make_cached_scheduler(
    const std::string& name, std::uint64_t seed,
    std::shared_ptr<PlanCache> cache,
    std::shared_ptr<const SignatureBuilder> builder = nullptr);

}  // namespace corun::sched
