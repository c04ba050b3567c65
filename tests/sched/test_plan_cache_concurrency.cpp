// Plan cache under concurrency — the contract the serving daemon stands
// on: concurrent hammering of the one LRU with exact aggregate stats and
// per-request byte-identical results. Run under the tsan preset to certify
// the locking discipline.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "../support/fixtures.hpp"
#include "corun/core/sched/branch_and_bound.hpp"
#include "corun/core/sched/plan_cache/plan_cache.hpp"
#include "corun/core/sched/plan_cache/signature.hpp"

namespace corun::sched {
namespace {

using corun::testing::motivation_fixture;

/// `seeds` x `caps` distinct signatures: "bnb" under distinct seeds, each
/// at `caps` distinct caps.
std::vector<PlanSignature> make_population(std::size_t seeds,
                                           std::size_t caps) {
  const auto& f = motivation_fixture();
  std::vector<PlanSignature> sigs;
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    for (std::size_t c = 0; c < caps; ++c) {
      const auto ctx = f.context(10.0 + 0.25 * static_cast<double>(c));
      sigs.push_back(make_signature(ctx, "bnb", seed));
    }
  }
  return sigs;
}

/// Runs `fn(thread_index)` on `threads` std::threads and joins them.
void run_threads(std::size_t threads,
                 const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(fn, t);
  for (std::thread& th : pool) th.join();
}

TEST(ConcurrentPlanCache, ConcurrentStoresUnderEvictionPressureKeepExactStats) {
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  const Schedule schedule = BranchAndBoundScheduler().plan(ctx);
  const auto names = ctx.job_names();

  constexpr std::size_t kCapacity = 2;  // forces evictions
  constexpr std::size_t kThreads = 8;
  auto cache = PlanCache::from_spec("mem:2").value();
  ASSERT_EQ(cache->config().capacity, kCapacity);

  const std::vector<PlanSignature> sigs = make_population(12, 5);

  // Disjoint slices of distinct keys stored concurrently. Which entries
  // survive depends on interleaving, but the *counts* do not: every insert
  // beyond the capacity evicts exactly one entry.
  run_threads(kThreads, [&](std::size_t t) {
    for (std::size_t i = t; i < sigs.size(); i += kThreads) {
      cache->store(sigs[i], schedule, names);
    }
  });

  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.stores, sigs.size());
  EXPECT_EQ(stats.evictions, stats.stores - kCapacity);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(cache->size(), kCapacity);
  EXPECT_EQ(cache->lru_keys().size(), kCapacity);
}

TEST(ConcurrentPlanCache, ConcurrentMixedLookupsAreExactAndDeterministic) {
  const auto& f = motivation_fixture();
  const auto names = f.context(15.0).job_names();

  // Distinct schedules per cap so a hit returning the *wrong* entry's
  // bytes cannot go unnoticed.
  constexpr std::size_t kCaps = 4;
  std::vector<Schedule> schedules;
  std::vector<std::string> expected_text;
  for (std::size_t c = 0; c < kCaps; ++c) {
    const auto ctx = f.context(10.0 + 0.25 * static_cast<double>(c));
    schedules.push_back(BranchAndBoundScheduler().plan(ctx));
    expected_text.push_back(schedules.back().to_string(names));
  }

  constexpr std::size_t kSeeds = 6;
  constexpr std::size_t kThreads = 8;
  // Capacity large enough that nothing evicts: residency is total, so
  // every exact lookup must hit and the aggregate counts are exact.
  auto cache = PlanCache::from_spec("mem:64").value();
  const std::vector<PlanSignature> sigs = make_population(kSeeds, kCaps);
  ASSERT_EQ(sigs.size(), kSeeds * kCaps);
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    cache->store(sigs[i], schedules[i % kCaps], names);
  }

  // Never-stored signatures (an unseen cap per seed): deterministic
  // misses.
  std::vector<PlanSignature> absent;
  for (std::size_t seed = 0; seed < kSeeds; ++seed) {
    absent.push_back(make_signature(f.context(99.0), "bnb", seed));
  }

  std::atomic<std::size_t> mismatches{0};
  run_threads(kThreads, [&](std::size_t t) {
    // Stagger start offsets so threads collide on different keys first.
    for (std::size_t k = 0; k < sigs.size(); ++k) {
      const std::size_t i = (k + t * 3) % sigs.size();
      const auto hit = cache->lookup(sigs[i], names);
      if (!hit.has_value() ||
          hit->to_string(names) != expected_text[i % kCaps]) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (const PlanSignature& sig : absent) {
      if (cache->lookup(sig, names).has_value()) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  EXPECT_EQ(mismatches.load(), 0u);
  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.stores, sigs.size());
  EXPECT_EQ(stats.hits, kThreads * sigs.size());
  EXPECT_EQ(stats.misses, kThreads * absent.size());
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(cache->size(), sigs.size());
}

TEST(ConcurrentPlanCache, HammerMixedOperationsStayConsistent) {
  // The everything-at-once hammer: concurrent stores and exact lookups over
  // overlapping keys with real eviction pressure. No residency is
  // guaranteed, so the assertions are the invariants that must survive any
  // interleaving: a hit's bytes always match what was stored for that
  // signature, sizes never exceed capacity, and the accounting identities
  // hold. This is the tsan workout for the cache's locking discipline.
  const auto& f = motivation_fixture();
  const auto names = f.context(15.0).job_names();

  constexpr std::size_t kCaps = 3;
  std::vector<Schedule> schedules;
  std::map<std::string, std::string> text_by_canonical;
  const std::vector<PlanSignature> sigs = make_population(8, kCaps);
  for (std::size_t c = 0; c < kCaps; ++c) {
    schedules.push_back(BranchAndBoundScheduler().plan(
        f.context(10.0 + 0.25 * static_cast<double>(c))));
  }
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    text_by_canonical[sigs[i].canonical] =
        schedules[i % kCaps].to_string(names);
  }

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 40;
  auto cache = PlanCache::from_spec("mem:8").value();

  std::atomic<std::size_t> lookups{0};
  std::atomic<std::size_t> store_calls{0};
  std::atomic<std::size_t> bad_bytes{0};
  run_threads(kThreads, [&](std::size_t t) {
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < sigs.size(); ++i) {
        const std::size_t k = (i + t) % sigs.size();
        if ((round + t + k) % 3 == 0) {
          cache->store(sigs[k], schedules[k % kCaps], names);
          store_calls.fetch_add(1, std::memory_order_relaxed);
        } else {
          const auto hit = cache->lookup(sigs[k], names);
          lookups.fetch_add(1, std::memory_order_relaxed);
          if (hit.has_value() && hit->to_string(names) !=
                                     text_by_canonical[sigs[k].canonical]) {
            bad_bytes.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }
  });

  EXPECT_EQ(bad_bytes.load(), 0u);
  const PlanCacheStats stats = cache->stats();
  EXPECT_EQ(stats.stores, store_calls.load());
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_LE(cache->size(), cache->config().capacity);
  // Eviction accounting: every store either grew the cache or evicted one
  // entry (refreshes excepted), so evictions can never exceed stores.
  EXPECT_LE(stats.evictions, stats.stores);
}

TEST(ConcurrentPlanCache, SnapshotDiffAroundAPhaseIsExact) {
  // The DynamicRuntime contract: snapshot stats, run a phase, snapshot
  // again; the diff attributes exactly that phase's activity even if the
  // cache was already warm.
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  const Schedule schedule = BranchAndBoundScheduler().plan(ctx);
  const auto names = ctx.job_names();
  auto cache = PlanCache::from_spec("mem:8").value();

  const PlanSignature sig = make_signature(ctx, "bnb", 0);
  cache->store(sig, schedule, names);  // pre-phase warmth

  const PlanCacheStats before = cache->stats();
  (void)cache->lookup(sig, names);                        // hit
  (void)cache->lookup(make_signature(ctx, "bnb", 1), names);  // miss
  const PlanCacheStats after = cache->stats();
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.stores - before.stores, 0u);
}

}  // namespace
}  // namespace corun::sched
