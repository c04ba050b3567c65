// Plan cache: signature canonicalization, deterministic LRU behaviour,
// persistent-tier round trips, and — the property everything else leans
// on — cache-assisted planning returning byte-identical schedules to cold
// planning.
#include "corun/core/sched/plan_cache/plan_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../support/fixtures.hpp"
#include "corun/common/csv.hpp"
#include "corun/core/runtime/dynamic.hpp"
#include "corun/core/sched/branch_and_bound.hpp"
#include "corun/core/sched/plan_cache/caching_scheduler.hpp"
#include "corun/core/sched/plan_cache/signature.hpp"
#include "corun/core/sched/registry.hpp"
#include "corun/sim/fault_injector.hpp"

namespace corun::sched {
namespace {

using corun::testing::motivation_fixture;

std::string plan_text(const Schedule& s, const SchedulerContext& ctx) {
  return s.to_string(ctx.job_names());
}

/// A scratch directory for the persistent-tier tests, removed on teardown.
class PlanCacheDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("corun_plan_cache_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST(PlanSignature, OrderInvariantAcrossBatchPermutations) {
  const auto& f = motivation_fixture();
  workload::Batch reversed;
  for (auto it = f.batch.jobs().rbegin(); it != f.batch.jobs().rend(); ++it) {
    reversed.add(it->descriptor, it->seed, it->instance_name);
  }
  SchedulerContext forward_ctx = f.context(15.0);
  SchedulerContext reversed_ctx = f.context(15.0);
  reversed_ctx.batch = &reversed;

  const PlanSignature a = make_signature(forward_ctx, "bnb", 0);
  const PlanSignature b = make_signature(reversed_ctx, "bnb", 0);
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.hash, b.hash);
}

TEST(PlanSignature, FamilySharedAcrossCapsButNotSchedulers) {
  const auto& f = motivation_fixture();
  const PlanSignature low = make_signature(f.context(12.0), "bnb", 0);
  const PlanSignature high = make_signature(f.context(18.0), "bnb", 0);
  const PlanSignature uncapped =
      make_signature(f.context(std::nullopt), "bnb", 0);
  EXPECT_NE(low.canonical, high.canonical);
  EXPECT_NE(low.canonical, uncapped.canonical);
  EXPECT_EQ(low.family, high.family);
  EXPECT_EQ(low.family, uncapped.family);

  const PlanSignature hcs = make_signature(f.context(12.0), "hcs+", 0);
  EXPECT_NE(low.canonical, hcs.canonical);
  EXPECT_NE(low.family, hcs.family);
}

TEST(PlanSignature, SeedAndPolicyArePartOfTheIdentity) {
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  EXPECT_NE(make_signature(ctx, "bnb", 0).canonical,
            make_signature(ctx, "bnb", 1).canonical);
  SchedulerContext cpu_ctx = ctx;
  cpu_ctx.policy = sim::GovernorPolicy::kCpuBiased;
  EXPECT_NE(make_signature(ctx, "bnb", 0).canonical,
            make_signature(cpu_ctx, "bnb", 0).canonical);
}

TEST(PlanCache, FromSpecParsesEveryForm) {
  EXPECT_EQ(PlanCache::from_spec("").value(), nullptr);
  EXPECT_EQ(PlanCache::from_spec("off").value(), nullptr);
  auto mem = PlanCache::from_spec("mem").value();
  ASSERT_NE(mem, nullptr);
  EXPECT_EQ(mem->config().capacity, 512u);
  auto sized = PlanCache::from_spec("mem:3").value();
  ASSERT_NE(sized, nullptr);
  EXPECT_EQ(sized->config().capacity, 3u);
  EXPECT_FALSE(PlanCache::from_spec("bogus").has_value());
  EXPECT_FALSE(PlanCache::from_spec("mem:0").has_value());
  EXPECT_FALSE(PlanCache::from_spec("mem:x").has_value());
  EXPECT_FALSE(PlanCache::from_spec("dir:").has_value());
}

TEST(PlanCache, LruEvictionOrderIsDeterministic) {
  const auto& f = motivation_fixture();
  auto cache = PlanCache::from_spec("mem:2").value();
  BranchAndBoundScheduler bnb;

  const std::vector<Watts> caps = {12.0, 14.0, 16.0};
  std::vector<PlanSignature> sigs;
  for (const Watts cap : caps) {
    const auto ctx = f.context(cap);
    sigs.push_back(make_signature(ctx, "bnb", 0));
    cache->store(sigs.back(), bnb.plan(ctx), ctx.job_names());
  }
  // Capacity 2: storing the third entry evicts the first (LRU).
  EXPECT_EQ(cache->size(), 2u);
  EXPECT_EQ(cache->stats().evictions, 1u);
  EXPECT_EQ(cache->lru_keys(),
            (std::vector<std::string>{sigs[1].canonical, sigs[2].canonical}));
  const auto names = f.context(12.0).job_names();
  EXPECT_FALSE(cache->lookup(sigs[0], names).has_value());

  // Touching the LRU entry promotes it, so the *other* entry is evicted
  // next — the order is purely access-driven, never iteration-driven.
  EXPECT_TRUE(cache->lookup(sigs[1], names).has_value());
  EXPECT_EQ(cache->lru_keys(),
            (std::vector<std::string>{sigs[2].canonical, sigs[1].canonical}));
  const auto ctx18 = f.context(18.0);
  cache->store(make_signature(ctx18, "bnb", 0), bnb.plan(ctx18),
               ctx18.job_names());
  EXPECT_TRUE(cache->lookup(sigs[1], names).has_value());
  EXPECT_FALSE(cache->lookup(sigs[2], names).has_value());
}

TEST_F(PlanCacheDirTest, PersistentTierRoundTripsExactly) {
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  const PlanSignature sig = make_signature(ctx, "bnb", 0);
  BranchAndBoundScheduler bnb;
  const Schedule planned = bnb.plan(ctx);
  const std::string spec = "dir:" + dir_.string();

  {
    auto writer = PlanCache::from_spec(spec).value();
    writer->store(sig, planned, ctx.job_names());
    EXPECT_EQ(writer->stats().io_failures, 0u);
  }
  // One file, named by the canonical hash.
  const auto expected =
      dir_ / ("plan_" + hex64(sig.hash) + ".csv");
  EXPECT_TRUE(std::filesystem::exists(expected));

  // A fresh cache (empty memory tier) must serve the exact schedule from
  // disk, byte-identical in its rendered form.
  auto reader = PlanCache::from_spec(spec).value();
  const auto hit = reader->lookup(sig, ctx.job_names());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(plan_text(*hit, ctx), plan_text(planned, ctx));
  EXPECT_EQ(reader->stats().disk_hits, 1u);
  EXPECT_EQ(reader->stats().hits, 1u);

  // A different request never aliases onto this file.
  const PlanSignature other = make_signature(f.context(16.0), "bnb", 0);
  EXPECT_FALSE(reader->lookup(other, ctx.job_names()).has_value());
}

TEST_F(PlanCacheDirTest, OldLayoutEntryIsAnIoFailureMissUntilRestored) {
  // Entries written before the layout shrank carry family, makespan and
  // jobs rows between the signature and the schedule. Such a file — even
  // one for the exact requested signature — reads as a miss counted in
  // io_failures, and the next store for that request overwrites it.
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  const PlanSignature sig = make_signature(ctx, "bnb", 0);
  const Schedule planned = BranchAndBoundScheduler().plan(ctx);
  std::ostringstream schedule_csv;
  schedule_to_csv(planned, ctx.job_names(), schedule_csv);
  std::filesystem::create_directories(dir_);
  const auto path = dir_ / ("plan_" + hex64(sig.hash) + ".csv");
  {
    std::ofstream out(path, std::ios::binary);
    CsvWriter writer(out);
    writer.write_row({"sig", sig.canonical});
    writer.write_row({"family", sig.family});
    writer.write_row({"makespan", signature_double(1.0 / 3.0)});
    std::vector<std::string> jobs_row{"jobs"};
    for (const std::string& name : ctx.job_names()) jobs_row.push_back(name);
    writer.write_row(jobs_row);
    out << schedule_csv.str();
  }

  auto cache = PlanCache::from_spec("dir:" + dir_.string()).value();
  EXPECT_FALSE(cache->lookup(sig, ctx.job_names()).has_value());
  EXPECT_EQ(cache->stats().io_failures, 1u);
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().disk_hits, 0u);

  cache->store(sig, planned, ctx.job_names());
  auto reader = PlanCache::from_spec("dir:" + dir_.string()).value();
  const auto hit = reader->lookup(sig, ctx.job_names());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(plan_text(*hit, ctx), plan_text(planned, ctx));
  EXPECT_EQ(reader->stats().io_failures, 0u);
  EXPECT_EQ(reader->stats().disk_hits, 1u);
}

TEST(PlanCacheEntry, CsvCarriesFullSignatureThenScheduleRows) {
  const std::string csv =
      plan_cache_entry_to_csv("v1;canonical", "flags,0,0,0\n");
  EXPECT_EQ(csv, "sig,v1;canonical\nflags,0,0,0\n");
}

TEST(CachingScheduler, ExactHitReplaysTheIdenticalSchedule) {
  const auto& f = motivation_fixture();
  const auto ctx = f.context(15.0);
  auto cache = PlanCache::from_spec("mem").value();
  auto cached = make_cached_scheduler("bnb", 42, cache);
  auto cold = make_scheduler("bnb", 42);

  const Schedule first = cached->plan(ctx);
  const Schedule second = cached->plan(ctx);
  EXPECT_EQ(plan_text(first, ctx), plan_text(cold->plan(ctx), ctx));
  EXPECT_EQ(plan_text(second, ctx), plan_text(first, ctx));
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 1u);
}

TEST(CachingScheduler, NullCacheAndRandomSchedulerBypass) {
  EXPECT_EQ(make_cached_scheduler("nonsense", 42, nullptr), nullptr);
  auto plain = make_cached_scheduler("bnb", 42, nullptr);
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(plain->name(), "BnB");

  // "random" is seed-sensitive by design; the wrapper must not memoize it.
  const auto& f = motivation_fixture();
  auto cache = PlanCache::from_spec("mem").value();
  auto random = make_cached_scheduler("random", 7, cache);
  (void)random->plan(f.context(15.0));
  (void)random->plan(f.context(15.0));
  EXPECT_EQ(cache->stats().hits + cache->stats().misses, 0u);
}

TEST(DynamicRuntimePlanCache, CacheOnAndOffAreByteIdentical) {
  const auto& f = motivation_fixture();
  const sim::FaultPlan plan =
      sim::generate_fault_plan_from_spec(
          "random:arrivals=1,caps=2,horizon=40,seed=7,programs=lud")
          .value();

  runtime::DynamicOptions options;
  options.cap = 15.0;
  options.seed = 42;
  options.scheduler = "bnb";

  const runtime::DynamicRuntime cold_rt(f.config, options);
  const runtime::DynamicReport cold =
      cold_rt.execute(f.batch, f.artifacts.db, f.artifacts.grid, plan);

  options.plan_cache = PlanCache::from_spec("mem").value();
  const runtime::DynamicRuntime cached_rt(f.config, options);
  const runtime::DynamicReport cached =
      cached_rt.execute(f.batch, f.artifacts.db, f.artifacts.grid, plan);

  EXPECT_EQ(cached.summary(), cold.summary());
  ASSERT_EQ(cached.report.jobs.size(), cold.report.jobs.size());
  for (std::size_t i = 0; i < cold.report.jobs.size(); ++i) {
    EXPECT_EQ(cached.report.jobs[i].name, cold.report.jobs[i].name);
    EXPECT_EQ(cached.report.jobs[i].device, cold.report.jobs[i].device);
    EXPECT_EQ(cached.report.jobs[i].start, cold.report.jobs[i].start);
    EXPECT_EQ(cached.report.jobs[i].finish, cold.report.jobs[i].finish);
  }
  EXPECT_EQ(cold.plan_cache_hits + cold.plan_cache_misses, 0u);
  EXPECT_GT(cached.plan_cache_hits + cached.plan_cache_misses, 0u);

  // Replaying the same scenario against the *same* cache turns the replans
  // into hits without perturbing the report.
  const runtime::DynamicReport replay =
      cached_rt.execute(f.batch, f.artifacts.db, f.artifacts.grid, plan);
  EXPECT_EQ(replay.summary(), cold.summary());
  EXPECT_GT(replay.plan_cache_hits, 0u);
}

}  // namespace
}  // namespace corun::sched
