// Plan cache: signature canonicalization, deterministic LRU behaviour,
// persistent-tier round trips, and — the property everything else leans
// on — cache-assisted planning returning byte-identical schedules to cold
// planning.
#include "corun/core/sched/plan_cache/plan_cache.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "../support/fixtures.hpp"
#include "corun/common/csv.hpp"
#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/runtime/dynamic.hpp"
#include "corun/core/sched/branch_and_bound.hpp"
#include "corun/core/sched/plan_cache/caching_scheduler.hpp"
#include "corun/core/sched/plan_cache/signature.hpp"
#include "corun/core/sched/refiner.hpp"
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
  // One directory per test and process: ctest -j runs each test case in
  // its own process, and a shared directory let one case's SetUp delete
  // another's entries mid-test.
  void SetUp() override {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("corun_plan_cache_test_" + std::string(test->name()) + "_" +
            std::to_string(::getpid()));
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

  const PlanSignature hcs = make_signature(f.context(12.0), "hcs+", 0);
  EXPECT_NE(low.canonical, hcs.canonical);
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

/// A request whose every digested input is set here by hand, so the golden
/// literals below move only when the signature encoding does, not when a
/// machine is recalibrated or the shared fixtures profile differently.
struct HandBuiltRequest {
  profile::ProfileDB db;
  model::DegradationGrid grid;
  sim::MachineConfig machine;
  workload::Batch batch;
  std::optional<Watts> cap = 12.5;

  HandBuiltRequest() {
    using sim::DeviceKind;
    db.set_idle_power(5.5);
    db.insert("a", DeviceKind::kCpu, 0, {10.0, 2.5, 9.0, 90.0});
    db.insert("a", DeviceKind::kCpu, 2, {6.0, 3.5, 12.0, 72.0});
    db.insert("a", DeviceKind::kGpu, 1, {8.0, 4.25, 10.5, 84.0});
    db.insert("b", DeviceKind::kCpu, 1, {20.0, 1.5, 8.5, 170.0});
    db.insert("b", DeviceKind::kGpu, 0, {15.0, 6.0, 9.5, 142.5});
    db.insert("b", DeviceKind::kGpu, 1, {12.0, 7.0, 11.0, 132.0});

    grid.cpu_axis = {0.0, 4.0};
    grid.gpu_axis = {0.0, 2.0, 4.0};
    grid.cpu_deg = {{0.0, 0.125, 0.25}, {0.0625, 0.375, 0.5}};
    grid.gpu_deg = {{0.0, 0.03125, 0.0625}, {0.25, 0.5, 0.75}};

    machine.cpu_ladder = sim::FrequencyLadder({1.0, 1.5, 2.0});
    machine.gpu_ladder = sim::FrequencyLadder({0.5, 1.0});
    machine.cpu_cores = 2;
    double v = 0.0;
    for (double* p :
         {&machine.mem_bw_freq_sensitivity, &machine.cs_overhead,
          &machine.cs_locality_penalty, &machine.llc_capacity_mb,
          &machine.llc_pressure_saturation_bw, &machine.power.uncore,
          &machine.memory.saturation_bw, &machine.memory.cpu_share_weight,
          &machine.memory.gpu_share_weight, &machine.memory.cpu_latency_alpha,
          &machine.memory.gpu_latency_alpha, &machine.memory.cpu_latency_gamma,
          &machine.memory.gpu_latency_gamma, &machine.memory.latency_base,
          &machine.memory.latency_self}) {
      *p = v += 0.25;
    }
    for (sim::DevicePowerParams* dev :
         {&machine.power.cpu, &machine.power.gpu}) {
      for (double* p : {&dev->leakage, &dev->idle, &dev->dyn_max,
                        &dev->v_floor, &dev->stall_activity}) {
        *p = v += 0.25;
      }
    }

    // Planners and signatures know jobs by name only.
    for (const char* name : {"a", "b"}) {
      workload::BatchJob job;
      job.instance_name = name;
      batch.add(job);
    }
  }

  /// The request's signature under the fields as they are now.
  [[nodiscard]] PlanSignature signature() const {
    const model::CoRunPredictor predictor(db, grid, machine);
    SchedulerContext ctx;
    ctx.batch = &batch;
    ctx.predictor = &predictor;
    ctx.cap = cap;
    return make_signature(ctx, "hcs+", 0);
  }
};

/// Golden values of the v2 encoding. Persisted `dir:` entries are named by
/// the canonical hash, so an encoding change orphans every one of them: it
/// must bump the version tag and re-record these literals, never slip in.
TEST(PlanSignature, V2EncodingIsPinned) {
  const HandBuiltRequest r;
  EXPECT_EQ(job_profile_digest(r.db, "a"), 0xf050c9092185a296ULL);
  EXPECT_EQ(job_profile_digest(r.db, "b"), 0x4a83859a5c01c6b5ULL);
  const PlanSignature sig = r.signature();
  EXPECT_EQ(sig.canonical,
            "v2;scheduler=hcs+;seed=0;policy=gpu;machine=1c87aaded2b52a0e;"
            "grid=4ef4f3983b803d78;idle=5.5;cap=12.5;"
            "job{a|f050c9092185a296};job{b|4a83859a5c01c6b5}");
  EXPECT_EQ(sig.hash, 0x833c5cc3c97cb533ULL);
}

TEST(PlanSignature, OneUlpInAnyDigestedValueChangesTheCanonical) {
  const std::string base = HandBuiltRequest().signature().canonical;
  auto up = [](double v) {
    return std::nextafter(v, std::numeric_limits<double>::infinity());
  };
  auto canonical_after = [](const auto& edit) {
    HandBuiltRequest r;
    edit(r);
    return r.signature().canonical;
  };
  for (double profile::ProfileEntry::*field :
       {&profile::ProfileEntry::time, &profile::ProfileEntry::avg_bw,
        &profile::ProfileEntry::avg_power, &profile::ProfileEntry::energy}) {
    EXPECT_NE(canonical_after([&](HandBuiltRequest& r) {
                const sim::DeviceKind gpu = sim::DeviceKind::kGpu;
                profile::ProfileEntry e = r.db.at("b", gpu, 1);
                e.*field = up(e.*field);
                r.db.insert("b", gpu, 1, e);
              }),
              base);
  }
  EXPECT_NE(canonical_after([&](HandBuiltRequest& r) {
              r.grid.gpu_deg[1][2] = up(r.grid.gpu_deg[1][2]);
            }),
            base);
  EXPECT_NE(canonical_after([&](HandBuiltRequest& r) {
              r.grid.cpu_axis[1] = up(r.grid.cpu_axis[1]);
            }),
            base);
  EXPECT_NE(canonical_after([&](HandBuiltRequest& r) {
              r.machine.gpu_ladder = sim::FrequencyLadder({0.5, up(1.0)});
            }),
            base);
  EXPECT_NE(canonical_after([&](HandBuiltRequest& r) {
              double& v = r.machine.power.gpu.stall_activity;
              v = up(v);
            }),
            base);
  EXPECT_NE(canonical_after([&](HandBuiltRequest& r) {
              r.db.set_idle_power(up(r.db.idle_power()));
            }),
            base);
  EXPECT_NE(canonical_after([&](HandBuiltRequest& r) { r.cap = up(*r.cap); }),
            base);
  // Rebuilding the unedited request gives the same canonical.
  EXPECT_EQ(canonical_after([](HandBuiltRequest&) {}), base);
}

TEST(PlanCache, FromSpecParsesEveryForm) {
  EXPECT_EQ(PlanCache::from_spec("").value(), nullptr);
  EXPECT_EQ(PlanCache::from_spec("off").value(), nullptr);
  auto mem = PlanCache::from_spec("mem").value();
  ASSERT_NE(mem, nullptr);
  EXPECT_EQ(mem->config().capacity, 4096u);
  auto sized = PlanCache::from_spec("mem:3").value();
  ASSERT_NE(sized, nullptr);
  EXPECT_EQ(sized->config().capacity, 3u);
  EXPECT_FALSE(PlanCache::from_spec("bogus").has_value());
  EXPECT_FALSE(PlanCache::from_spec("mem:0").has_value());
  EXPECT_FALSE(PlanCache::from_spec("mem:x").has_value());
  EXPECT_FALSE(PlanCache::from_spec("mem:3:4").has_value());
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

TEST(PlanCache, OneLruAcrossSchedulers) {
  // The capacity bounds the whole memory tier: the least recently used
  // entry goes first whichever scheduler planned it.
  const auto& f = motivation_fixture();
  auto cache = PlanCache::from_spec("mem:2").value();
  const auto ctx12 = f.context(12.0);
  const auto ctx14 = f.context(14.0);
  const PlanSignature bnb = make_signature(ctx12, "bnb", 0);
  const PlanSignature hcs12 = make_signature(ctx12, "hcs+", 0);
  const PlanSignature hcs14 = make_signature(ctx14, "hcs+", 0);
  cache->store(bnb, BranchAndBoundScheduler().plan(ctx12),
               ctx12.job_names());
  cache->store(hcs12, HcsPlusScheduler().plan(ctx12), ctx12.job_names());
  cache->store(hcs14, HcsPlusScheduler().plan(ctx14), ctx14.job_names());

  EXPECT_EQ(cache->size(), 2u);
  EXPECT_EQ(cache->stats().evictions, 1u);
  EXPECT_EQ(cache->lru_keys(),
            (std::vector<std::string>{hcs12.canonical, hcs14.canonical}));
  EXPECT_FALSE(cache->lookup(bnb, ctx12.job_names()).has_value());
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
    // The old layout's family: the canonical without its cap and job set.
    writer.write_row(
        {"family", sig.canonical.substr(0, sig.canonical.find(";cap="))});
    writer.write_row({"makespan", csv_double(1.0 / 3.0)});
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
