// Paper-claim tests: the headline quantitative results of the evaluation
// section, reproduced end-to-end on ground truth. These are slower than
// unit tests (full comparisons) but pin the results EXPERIMENTS.md reports.
#include <gtest/gtest.h>

#include "../support/fixtures.hpp"
#include "corun/common/stats.hpp"
#include "corun/core/runtime/experiment.hpp"

namespace corun {
namespace {

class PaperClaimsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto& f = corun::testing::eight_program_fixture();
    runtime::ComparisonOptions options;
    options.cap = 15.0;
    options.random_seeds = 8;  // trimmed from the paper's 20 for test speed
    result8_ = new runtime::ComparisonResult(
        run_comparison(f.config, f.batch, f.artifacts, options));
  }
  static void TearDownTestSuite() {
    delete result8_;
    result8_ = nullptr;
  }
  static runtime::ComparisonResult* result8_;
};

runtime::ComparisonResult* PaperClaimsTest::result8_ = nullptr;

TEST_F(PaperClaimsTest, Fig10_HcsBeatsDefaultAndRandom) {
  // Fig. 10 ordering: HCS+ >= HCS > Default_G > Default_C (all vs Random).
  const double hcs_plus = result8_->method("HCS+").speedup_vs_random;
  const double hcs = result8_->method("HCS").speedup_vs_random;
  const double default_g = result8_->method("Default_G").speedup_vs_random;
  const double default_c = result8_->method("Default_C").speedup_vs_random;
  EXPECT_GE(hcs_plus, hcs * 0.99);
  EXPECT_GT(hcs, default_g * 0.99);
  EXPECT_GT(default_g, default_c);
  EXPECT_GT(hcs_plus, 1.0);  // meaningfully better than Random
}

TEST_F(PaperClaimsTest, Fig10_GpuBiasedDefaultOutperformsCpuBiased) {
  // Paper: Default_G beats Default_C because GPU frequency buys more
  // throughput for this (mostly GPU-preferring) suite.
  EXPECT_GT(result8_->method("Default_G").speedup_vs_random,
            result8_->method("Default_C").speedup_vs_random * 1.02);
}

TEST_F(PaperClaimsTest, Fig10_BoundLeavesHeadroom) {
  // The bound's speedup must exceed every achieved method's.
  for (const runtime::MethodResult& m : result8_->methods) {
    EXPECT_GE(result8_->bound_speedup_vs_random,
              m.speedup_vs_random * 0.98)
        << m.name;
  }
}

TEST(PaperClaims16, Fig11_DefaultCollapsesAtSixteenJobs) {
  // Fig. 11: with 16 instances the Default baselines fall *below* Random
  // (CPU time-sharing overheads), while HCS+ stays clearly above it.
  const auto f = corun::testing::make_fixture(workload::make_batch_16(42));
  runtime::ComparisonOptions options;
  options.cap = 15.0;
  options.random_seeds = 6;
  const runtime::ComparisonResult result =
      run_comparison(f->config, f->batch, f->artifacts, options);

  EXPECT_GT(result.method("HCS+").speedup_vs_random, 1.05);
  EXPECT_LT(result.method("Default_C").speedup_vs_random, 1.0);
  EXPECT_GT(result.method("HCS+").makespan * 1.0,
            result.lower_bound);  // bound stays below
  // HCS+ over Default must be a large gain (paper: ~46%).
  EXPECT_GT(result.method("Default_G").makespan /
                result.method("HCS+").makespan,
            1.10);
}

TEST(PaperClaims, PowerModelErrorBandsOnSampledPairs) {
  // Fig. 8's shape on a sample of pairs: mean error of the standalone-sum
  // power prediction stays within a few percent of ground truth.
  const auto& f = corun::testing::eight_program_fixture();
  std::vector<double> errors;
  const std::size_t pairs[][2] = {{0, 1}, {2, 0}, {5, 3}, {6, 4}, {7, 1}};
  for (const auto& pr : pairs) {
    const std::string cpu_job = f.batch.job(pr[0]).instance_name;
    const std::string gpu_job = f.batch.job(pr[1]).instance_name;
    const Watts predicted = f.predictor->predict_power(cpu_job, 15, gpu_job, 9);

    sim::EngineOptions eo;
    eo.record_samples = false;
    sim::Engine engine(f.config, eo);
    engine.set_ceilings(15, 9);
    engine.launch(f.batch.job(pr[0]).spec, sim::DeviceKind::kCpu);
    engine.launch(f.batch.job(pr[1]).spec, sim::DeviceKind::kGpu);
    (void)engine.run_until_event();  // overlap window only
    errors.push_back(relative_error(predicted, engine.telemetry().avg_power()));
  }
  EXPECT_LT(mean(errors), 0.05);  // paper: 1.92% average
  for (const double e : errors) EXPECT_LT(e, 0.10);  // paper max: 8%
}

}  // namespace
}  // namespace corun
