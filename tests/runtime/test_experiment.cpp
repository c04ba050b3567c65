#include "corun/core/runtime/experiment.hpp"

#include <gtest/gtest.h>

#include "../support/fixtures.hpp"
#include "corun/core/sched/hcs.hpp"

namespace corun::runtime {
namespace {

using corun::testing::motivation_fixture;

TEST(BuildArtifacts, ProducesProfilesAndGrid) {
  const auto& f = motivation_fixture();  // built via build_artifacts
  EXPECT_GT(f.artifacts.db.size(), 0u);
  EXPECT_TRUE(f.artifacts.grid.valid());
  EXPECT_GT(f.artifacts.db.idle_power(), 0.0);
  // Every batch job profiled on both devices.
  EXPECT_EQ(f.artifacts.db.jobs().size(), 4u);
}

TEST(RunMethod, TimesPlanningAndExecutes) {
  const auto& f = motivation_fixture();
  sched::HcsScheduler hcs;
  RuntimeOptions rt;
  rt.cap = 15.0;
  const MethodResult result =
      run_method(f.config, f.batch, *f.predictor, hcs, rt, 15.0);
  EXPECT_EQ(result.name, "HCS");
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_GT(result.planning_seconds, 0.0);
  EXPECT_EQ(result.report.jobs.size(), 4u);
  // Sec. VI-D's overhead budget compares wall-clock planning time with the
  // makespan, so bench/fig10_speedup_8 CHECKs it, not this suite.
}

class ComparisonTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto& f = motivation_fixture();
    ComparisonOptions options;
    options.cap = 15.0;
    options.random_seeds = 5;  // keep the unit test quick
    result_ = new ComparisonResult(
        run_comparison(f.config, f.batch, f.artifacts, options));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static ComparisonResult* result_;
};

ComparisonResult* ComparisonTest::result_ = nullptr;

TEST_F(ComparisonTest, AllMethodsPresent) {
  EXPECT_EQ(result_->random_makespans.size(), 5u);
  EXPECT_GT(result_->random_mean_makespan, 0.0);
  for (const char* name : {"Default_G", "Default_C", "HCS", "HCS+"}) {
    EXPECT_GT(result_->method(name).makespan, 0.0) << name;
  }
  EXPECT_THROW((void)result_->method("nope"), corun::ContractViolation);
}

TEST_F(ComparisonTest, HcsPlusAtLeastAsGoodAsHcs) {
  EXPECT_LE(result_->method("HCS+").makespan,
            result_->method("HCS").makespan * 1.02);
}

TEST_F(ComparisonTest, HcsBeatsRandomMean) {
  EXPECT_GT(result_->method("HCS+").speedup_vs_random, 1.0);
}

TEST_F(ComparisonTest, BoundBelowEveryMethod) {
  for (const MethodResult& m : result_->methods) {
    EXPECT_LT(result_->lower_bound, m.makespan * 1.05) << m.name;
  }
  EXPECT_GE(result_->bound_speedup_vs_random,
            result_->method("HCS+").speedup_vs_random * 0.95);
}

TEST_F(ComparisonTest, SpeedupsConsistentWithMakespans) {
  for (const MethodResult& m : result_->methods) {
    EXPECT_NEAR(m.speedup_vs_random,
                result_->random_mean_makespan / m.makespan, 1e-9);
  }
}

TEST(ComparisonOptionsTest, CpuBiasedDefaultCanBeSkipped) {
  const auto& f = motivation_fixture();
  runtime::ComparisonOptions options;
  options.cap = 15.0;
  options.random_seeds = 2;
  options.include_cpu_biased_default = false;
  const ComparisonResult r =
      run_comparison(f.config, f.batch, f.artifacts, options);
  EXPECT_NO_THROW((void)r.method("Default_G"));
  EXPECT_THROW((void)r.method("Default_C"), corun::ContractViolation);
  EXPECT_EQ(r.methods.size(), 3u);  // Default_G, HCS, HCS+
}

TEST(ComparisonOptionsTest, PowerTracesOnlyWhenRequested) {
  const auto& f = motivation_fixture();
  runtime::ComparisonOptions options;
  options.cap = 15.0;
  options.random_seeds = 1;
  options.include_cpu_biased_default = false;
  options.record_power_traces = true;
  const ComparisonResult with_traces =
      run_comparison(f.config, f.batch, f.artifacts, options);
  EXPECT_FALSE(with_traces.method("HCS").report.power_trace.empty());
  options.record_power_traces = false;
  const ComparisonResult without =
      run_comparison(f.config, f.batch, f.artifacts, options);
  EXPECT_TRUE(without.method("HCS").report.power_trace.empty());
}

TEST(ComparisonOptionsTest, UncappedComparisonRuns) {
  const auto& f = motivation_fixture();
  runtime::ComparisonOptions options;
  options.cap = std::nullopt;
  options.random_seeds = 2;
  options.include_cpu_biased_default = false;
  const ComparisonResult r =
      run_comparison(f.config, f.batch, f.artifacts, options);
  // Uncapped, everything is faster than any capped run and the ordering
  // still holds.
  EXPECT_GT(r.method("HCS+").speedup_vs_random, 1.0);
  EXPECT_LT(r.method("HCS+").makespan, 160.0);
}

TEST(ComparisonOptionsTest, ZeroRandomSeedsRejected) {
  const auto& f = motivation_fixture();
  runtime::ComparisonOptions options;
  options.random_seeds = 0;
  EXPECT_THROW((void)run_comparison(f.config, f.batch, f.artifacts, options),
               corun::ContractViolation);
}

}  // namespace
}  // namespace corun::runtime
