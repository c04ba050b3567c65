// Calibration snapshots: coarse golden values for the contention surfaces
// and power envelope. Their job is to catch *accidental* recalibration —
// an innocent-looking constant tweak that silently shifts every experiment.
// Deliberate recalibration should update these values alongside
// docs/calibration.md.
#include <gtest/gtest.h>

#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/model/degradation_space.hpp"
#include "corun/profile/profiler.hpp"
#include "corun/sim/backend.hpp"
#include "corun/workload/batch.hpp"
#include "corun/workload/microbench.hpp"
#include "corun/workload/rodinia.hpp"

namespace corun {
namespace {

TEST(CalibrationSnapshot, DegradationSurfaceAnchors) {
  const model::DegradationSpaceBuilder builder(sim::ivy_bridge());
  // A 3x3 anchor set over the surface; tolerances are tight enough to catch
  // a mis-tuned knob but loose enough to survive benign refactors.
  struct Anchor {
    double cpu_bw;
    double gpu_bw;
    double cpu_deg;
    double gpu_deg;
  };
  const Anchor anchors[] = {
      {3.3, 3.3, 0.012, 0.046},  {3.3, 9.9, 0.059, 0.196},
      {9.9, 3.3, 0.049, 0.081},  {9.9, 9.9, 0.470, 0.343},
      {11.0, 11.0, 0.686, 0.473},
  };
  for (const Anchor& a : anchors) {
    const double cpu =
        builder.measure_cell(sim::DeviceKind::kCpu, a.cpu_bw, a.gpu_bw);
    const double gpu =
        builder.measure_cell(sim::DeviceKind::kGpu, a.gpu_bw, a.cpu_bw);
    EXPECT_NEAR(cpu, a.cpu_deg, 0.05)
        << "cpu cell (" << a.cpu_bw << "," << a.gpu_bw << ")";
    EXPECT_NEAR(gpu, a.gpu_deg, 0.05)
        << "gpu cell (" << a.cpu_bw << "," << a.gpu_bw << ")";
  }
}

TEST(CalibrationSnapshot, PowerEnvelopeAnchors) {
  const sim::MachineConfig config = sim::ivy_bridge();
  const auto compute = workload::micro_kernel(0.0, 5.0).value();
  const auto memory = workload::micro_kernel(11.0, 5.0).value();
  const sim::JobSpec compute_spec = workload::make_job_spec(compute, 1);
  const sim::JobSpec memory_spec = workload::make_job_spec(memory, 1);

  // Compute-bound CPU at max / min frequency.
  EXPECT_NEAR(sim::run_standalone(config, compute_spec, sim::DeviceKind::kCpu,
                                  15, 0)
                  .avg_power,
              18.3, 0.7);
  EXPECT_NEAR(sim::run_standalone(config, compute_spec, sim::DeviceKind::kCpu,
                                  0, 0)
                  .avg_power,
              7.7, 0.5);
  // Memory-bound draws visibly less at the same level.
  const Watts mem_power = sim::run_standalone(config, memory_spec,
                                              sim::DeviceKind::kCpu, 15, 0)
                              .avg_power;
  EXPECT_NEAR(mem_power, 11.5, 0.7);
  // GPU compute at max.
  EXPECT_NEAR(sim::run_standalone(config, compute_spec, sim::DeviceKind::kGpu,
                                  0, 9)
                  .avg_power,
              16.4, 0.7);
}

TEST(CalibrationSnapshot, TableOneAnchorsExact) {
  // Two spot checks that the Table I calibration has not drifted (the full
  // table is covered elsewhere; these are the fast canaries).
  const sim::MachineConfig config = sim::ivy_bridge();
  const auto sc = workload::make_job_spec(
      workload::rodinia_by_name("streamcluster").value(), 42);
  EXPECT_NEAR(sim::run_standalone(config, sc, sim::DeviceKind::kCpu, 15, 9).time,
              59.71, 0.6);
  const auto dwt =
      workload::make_job_spec(workload::rodinia_by_name("dwt2d").value(), 42);
  EXPECT_NEAR(sim::run_standalone(config, dwt, sim::DeviceKind::kGpu, 15, 9).time,
              61.66, 0.7);
}

TEST(PairCache, QuantizedCacheConsistentWithFreshPredictor) {
  // The memoized pair search must return the same answer a fresh predictor
  // (empty cache) computes for the same quantized query — reusing a
  // predictor across thousands of queries is the hot path of planning.
  const sim::MachineConfig config = sim::ivy_bridge();
  workload::Batch batch;
  batch.add(workload::rodinia_by_name("srad").value(), 42);
  batch.add(workload::rodinia_by_name("cfd").value(), 42);
  profile::Profiler profiler(
      config, profile::ProfilerOptions{.cpu_levels = {0, 8},
                                       .gpu_levels = {0, 5}});
  const profile::ProfileDB db = profiler.profile_batch(batch);
  const model::DegradationSpaceBuilder builder(config);
  const model::DegradationGrid grid =
      builder.characterize({0.0, 6.0, 11.0}, {0.0, 6.0, 11.0});

  const model::CoRunPredictor reused(db, grid, config);
  for (const double w : {0.3, 1.0, 2.7, 9.0}) {
    // Warm the cache, query again, and compare to a cold predictor.
    (void)reused.best_pair_weighted("srad", "cfd", 15.0, 1.0, w);
    const auto warm = reused.best_pair_weighted("srad", "cfd", 15.0, 1.0, w);
    const model::CoRunPredictor cold(db, grid, config);
    const auto fresh = cold.best_pair_weighted("srad", "cfd", 15.0, 1.0, w);
    ASSERT_EQ(warm.has_value(), fresh.has_value()) << w;
    if (warm) {
      EXPECT_EQ(warm->cpu, fresh->cpu) << w;
      EXPECT_EQ(warm->gpu, fresh->gpu) << w;
    }
  }
}

}  // namespace
}  // namespace corun
