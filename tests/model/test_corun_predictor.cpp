#include "corun/core/model/corun_predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "corun/common/check.hpp"
#include "corun/common/task_pool.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/core/model/degradation_space.hpp"
#include "corun/core/sched/plan_view.hpp"
#include "corun/profile/profiler.hpp"
#include "corun/workload/batch.hpp"
#include "corun/workload/rodinia.hpp"

namespace corun::model {
namespace {

class CoRunPredictorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new sim::MachineConfig(sim::ivy_bridge());
    workload::Batch batch;
    for (const char* name : {"streamcluster", "dwt2d", "leukocyte"}) {
      batch.add(workload::rodinia_by_name(name).value(), 42);
    }
    profile::Profiler profiler(
        *config_, profile::ProfilerOptions{.cpu_levels = {0, 7},
                                           .gpu_levels = {0, 4}});
    db_ = new profile::ProfileDB(profiler.profile_batch(batch));
    const DegradationSpaceBuilder builder(*config_);
    grid_ = new DegradationGrid(
        builder.characterize({0.0, 3.0, 7.0, 11.0}, {0.0, 3.0, 7.0, 11.0}));
    predictor_ = new CoRunPredictor(*db_, *grid_, *config_);
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete grid_;
    delete db_;
    delete config_;
  }

  static sim::MachineConfig* config_;
  static profile::ProfileDB* db_;
  static DegradationGrid* grid_;
  static CoRunPredictor* predictor_;
};

sim::MachineConfig* CoRunPredictorTest::config_ = nullptr;
profile::ProfileDB* CoRunPredictorTest::db_ = nullptr;
DegradationGrid* CoRunPredictorTest::grid_ = nullptr;
CoRunPredictor* CoRunPredictorTest::predictor_ = nullptr;

TEST_F(CoRunPredictorTest, RecordedLevelsPassThrough) {
  EXPECT_DOUBLE_EQ(
      predictor_->standalone_time("dwt2d", sim::DeviceKind::kCpu, 15),
      db_->at("dwt2d", sim::DeviceKind::kCpu, 15).time);
  EXPECT_DOUBLE_EQ(
      predictor_->standalone_power("dwt2d", sim::DeviceKind::kCpu, 15),
      db_->at("dwt2d", sim::DeviceKind::kCpu, 15).avg_power);
}

TEST_F(CoRunPredictorTest, MissingLevelsInterpolated) {
  // Level 11 was not profiled; the interpolant must land between the
  // bracketing recorded levels 7 and 15.
  const Seconds t7 = predictor_->standalone_time("dwt2d", sim::DeviceKind::kCpu, 7);
  const Seconds t15 =
      predictor_->standalone_time("dwt2d", sim::DeviceKind::kCpu, 15);
  const Seconds t11 =
      predictor_->standalone_time("dwt2d", sim::DeviceKind::kCpu, 11);
  EXPECT_LT(t11, t7);
  EXPECT_GT(t11, t15);
}

TEST_F(CoRunPredictorTest, PredictionFieldsConsistent) {
  const PairPrediction p = predictor_->predict("dwt2d", 15, "streamcluster", 9);
  EXPECT_GE(p.cpu_degradation, 0.0);
  EXPECT_GE(p.gpu_degradation, 0.0);
  EXPECT_DOUBLE_EQ(p.cpu_time, p.cpu_solo_time * (1.0 + p.cpu_degradation));
  EXPECT_DOUBLE_EQ(p.gpu_time, p.gpu_solo_time * (1.0 + p.gpu_degradation));
  EXPECT_GT(p.power, 0.0);
}

TEST_F(CoRunPredictorTest, MemoryHogsInterfereMoreThanComputeJobs) {
  const PairPrediction hog = predictor_->predict("dwt2d", 15, "streamcluster", 9);
  const PairPrediction mild = predictor_->predict("dwt2d", 15, "leukocyte", 9);
  EXPECT_GT(hog.cpu_degradation, mild.cpu_degradation + 0.02);
}

TEST_F(CoRunPredictorTest, BestSoloLevelIsMaxWithoutCap) {
  const auto level = predictor_->best_solo_level(
      "leukocyte", sim::DeviceKind::kCpu, std::nullopt);
  ASSERT_TRUE(level.has_value());
  EXPECT_EQ(*level, 15);
}

TEST_F(CoRunPredictorTest, CapLowersBestSoloLevel) {
  // leukocyte is compute-bound (high power): a 15 W cap forbids max freq.
  const auto capped =
      predictor_->best_solo_level("leukocyte", sim::DeviceKind::kCpu, 15.0);
  ASSERT_TRUE(capped.has_value());
  EXPECT_LT(*capped, 15);
  EXPECT_LE(predictor_->standalone_power("leukocyte", sim::DeviceKind::kCpu,
                                         *capped),
            15.0);
}

TEST_F(CoRunPredictorTest, ImpossibleCapYieldsNull) {
  EXPECT_FALSE(predictor_
                   ->best_solo_level("leukocyte", sim::DeviceKind::kCpu, 1.0)
                   .has_value());
}

TEST_F(CoRunPredictorTest, BestPairRespectsCap) {
  const auto pair =
      predictor_->best_pair_min_makespan("dwt2d", "streamcluster", 16.0);
  ASSERT_TRUE(pair.has_value());
  EXPECT_LE(predictor_->predict_power("dwt2d", pair->cpu, "streamcluster",
                                      pair->gpu),
            16.0);
  // Without a cap the best pair is at least as good as running both maxed.
  const auto uncapped = predictor_->best_pair_min_makespan(
      "dwt2d", "streamcluster", std::nullopt);
  ASSERT_TRUE(uncapped.has_value());
  const PairPrediction best =
      predictor_->predict("dwt2d", uncapped->cpu, "streamcluster", uncapped->gpu);
  const PairPrediction maxed = predictor_->predict("dwt2d", 15, "streamcluster", 9);
  EXPECT_LE(std::max(best.cpu_time, best.gpu_time),
            std::max(maxed.cpu_time, maxed.gpu_time) + 1e-9);
}

TEST_F(CoRunPredictorTest, TighterCapNeverFaster) {
  const auto loose =
      predictor_->best_pair_min_makespan("dwt2d", "streamcluster", 20.0);
  const auto tight =
      predictor_->best_pair_min_makespan("dwt2d", "streamcluster", 14.0);
  ASSERT_TRUE(loose && tight);
  const PairPrediction pl =
      predictor_->predict("dwt2d", loose->cpu, "streamcluster", loose->gpu);
  const PairPrediction pt =
      predictor_->predict("dwt2d", tight->cpu, "streamcluster", tight->gpu);
  EXPECT_LE(std::max(pl.cpu_time, pl.gpu_time),
            std::max(pt.cpu_time, pt.gpu_time) + 1e-9);
}

TEST_F(CoRunPredictorTest, MinDegradationCriterionFindsLowInterference) {
  const auto pair =
      predictor_->best_pair_min_degradation("dwt2d", "streamcluster", 16.0);
  ASSERT_TRUE(pair.has_value());
  const PairPrediction p =
      predictor_->predict("dwt2d", pair->cpu, "streamcluster", pair->gpu);
  // Any feasible alternative must have >= degradation sum (up to the small
  // frequency tie-break bonus).
  const auto alt =
      predictor_->best_pair_min_makespan("dwt2d", "streamcluster", 16.0);
  const PairPrediction pa =
      predictor_->predict("dwt2d", alt->cpu, "streamcluster", alt->gpu);
  EXPECT_LE(p.cpu_degradation + p.gpu_degradation,
            pa.cpu_degradation + pa.gpu_degradation + 0.01);
}

// Fig. 8's model: co-run package power is the two standalone powers at the
// same levels minus the one idle-package term both of them include.
TEST_F(CoRunPredictorTest, PowerPredictionIsStandaloneSumMinusIdle) {
  const Watts p = predictor_->predict_power("dwt2d", 15, "streamcluster", 9);
  const Watts expected =
      predictor_->standalone_power("dwt2d", sim::DeviceKind::kCpu, 15) +
      predictor_->standalone_power("streamcluster", sim::DeviceKind::kGpu, 9) -
      db_->idle_power();
  EXPECT_DOUBLE_EQ(p, expected);
}

TEST_F(CoRunPredictorTest, LowerFrequencyPairsDrawLess) {
  EXPECT_LT(predictor_->predict_power("dwt2d", 0, "streamcluster", 0),
            predictor_->predict_power("dwt2d", 15, "streamcluster", 9));
}

TEST_F(CoRunPredictorTest, FeasibilityAgainstCap) {
  // A cap admits an operating point exactly when its predicted power is at
  // most the cap: a watt under the max levels' power rules them out, a watt
  // over it admits every point, as no cap does.
  const Watts corun = predictor_->predict_power("dwt2d", 15, "streamcluster", 9);
  EXPECT_NE(predictor_->best_pair_min_makespan("dwt2d", "streamcluster",
                                               corun - 1.0),
            (FreqPair{15, 9}));
  EXPECT_EQ(predictor_->best_pair_min_makespan("dwt2d", "streamcluster",
                                               corun + 1.0),
            predictor_->best_pair_min_makespan("dwt2d", "streamcluster",
                                               std::nullopt));
  const Watts solo =
      predictor_->standalone_power("dwt2d", sim::DeviceKind::kCpu, 15);
  EXPECT_NE(predictor_->best_solo_level("dwt2d", sim::DeviceKind::kCpu,
                                        solo - 1.0),
            15);
  EXPECT_EQ(predictor_->best_solo_level("dwt2d", sim::DeviceKind::kCpu,
                                        solo + 1.0),
            15);
}

TEST_F(CoRunPredictorTest, RequiresIdlePower) {
  const profile::ProfileDB empty;
  EXPECT_THROW(CoRunPredictor(empty, *grid_, *config_),
               corun::ContractViolation);
}

/// The analytic-tables contract: every point query answered from the dense
/// tables returns the same BITS as the legacy on-demand path, for every
/// profiled job at every ladder level (recorded and interpolated alike).
/// The legacy side is a copy-view of the suite predictor with tables off.
TEST_F(CoRunPredictorTest, AnalyticTablesAreByteIdenticalToLegacy) {
  const CoRunPredictor tables(*predictor_,
                              PredictorOptions{.analytic_tables = true});
  const CoRunPredictor legacy(*predictor_,
                              PredictorOptions{.analytic_tables = false});
  ASSERT_TRUE(tables.options().analytic_tables);
  ASSERT_FALSE(legacy.options().analytic_tables);

  const auto jobs = db_->jobs();
  for (const std::string& job : jobs) {
    for (const sim::DeviceKind d :
         {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
      const sim::FrequencyLadder& ladder = config_->ladder(d);
      for (sim::FreqLevel l = 0; l <= ladder.max_level(); ++l) {
        EXPECT_EQ(tables.standalone_time(job, d, l),
                  legacy.standalone_time(job, d, l))
            << job << " level " << l;
        EXPECT_EQ(tables.standalone_power(job, d, l),
                  legacy.standalone_power(job, d, l));
      }
    }
  }
  for (const std::string& cpu_job : jobs) {
    for (const std::string& gpu_job : jobs) {
      for (sim::FreqLevel fc = 0; fc <= config_->cpu_ladder.max_level();
           fc += 3) {
        for (sim::FreqLevel fg = 0; fg <= config_->gpu_ladder.max_level();
             fg += 2) {
          const PairPrediction a = tables.predict(cpu_job, fc, gpu_job, fg);
          const PairPrediction b = legacy.predict(cpu_job, fc, gpu_job, fg);
          EXPECT_EQ(a.cpu_degradation, b.cpu_degradation);
          EXPECT_EQ(a.gpu_degradation, b.gpu_degradation);
          EXPECT_EQ(a.cpu_solo_time, b.cpu_solo_time);
          EXPECT_EQ(a.gpu_solo_time, b.gpu_solo_time);
          EXPECT_EQ(a.cpu_time, b.cpu_time);
          EXPECT_EQ(a.gpu_time, b.gpu_time);
          EXPECT_EQ(a.power, b.power);
          EXPECT_EQ(tables.predict_power(cpu_job, fc, gpu_job, fg),
                    legacy.predict_power(cpu_job, fc, gpu_job, fg));
        }
      }
    }
  }

  // Every search scans the same cells on both paths, so it must pick the
  // same answer. Ratio buckets straddle both ends of the +-6-octave clamp.
  const std::vector<std::optional<Watts>> caps = {std::nullopt, 9.0, 12.5,
                                                  15.0, 20.0};
  const std::vector<double> gpu_weights = {1.0 / 256.0, 1.0 / 64.0, 0.4, 1.0,
                                           1.7, 64.0, 256.0};
  for (const std::optional<Watts>& cap : caps) {
    for (const std::string& job : jobs) {
      for (const sim::DeviceKind d :
           {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
        EXPECT_EQ(tables.best_solo_level(job, d, cap),
                  legacy.best_solo_level(job, d, cap))
            << job;
        if (legacy.best_solo_level(job, d, cap)) {
          EXPECT_EQ(tables.best_solo_time(job, d, cap),
                    legacy.best_solo_time(job, d, cap));
        }
      }
    }
    for (const std::string& cpu_job : jobs) {
      for (const std::string& gpu_job : jobs) {
        for (const double w : gpu_weights) {
          EXPECT_EQ(tables.best_pair_weighted(cpu_job, gpu_job, cap, 1.0, w),
                    legacy.best_pair_weighted(cpu_job, gpu_job, cap, 1.0, w))
              << cpu_job << "/" << gpu_job << " weight " << w;
        }
        EXPECT_EQ(tables.best_pair_min_degradation(cpu_job, gpu_job, cap),
                  legacy.best_pair_min_degradation(cpu_job, gpu_job, cap));
        for (const bool floor : {false, true}) {
          for (const sim::DeviceKind d :
               {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
            EXPECT_EQ(tables.min_corun_time(cpu_job, d, gpu_job, cap, floor),
                      legacy.min_corun_time(cpu_job, d, gpu_job, cap, floor));
          }
        }
      }
    }
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_cell(const PairPrediction& a, const PairPrediction& b) {
  EXPECT_TRUE(same_bits(a.cpu_degradation, b.cpu_degradation));
  EXPECT_TRUE(same_bits(a.gpu_degradation, b.gpu_degradation));
  EXPECT_TRUE(same_bits(a.cpu_solo_time, b.cpu_solo_time));
  EXPECT_TRUE(same_bits(a.gpu_solo_time, b.gpu_solo_time));
  EXPECT_TRUE(same_bits(a.cpu_time, b.cpu_time));
  EXPECT_TRUE(same_bits(a.gpu_time, b.gpu_time));
  EXPECT_TRUE(same_bits(a.power, b.power));
}

/// The row-keyed queries, and the per-plan view's handles and memoized
/// searches over them, answer with the name-keyed queries' bits: every
/// job, device and ladder level, every cell, caps from 10 to 20 W (and
/// none), weight ratios in all 49 buckets and past both ends of the clamp,
/// tables on and off. Each side is a fresh copy-view, so no answer comes
/// from the other's memo.
TEST_F(CoRunPredictorTest, RowKeyedQueriesMatchNameKeyed) {
  workload::Batch batch;
  for (const char* name : {"streamcluster", "dwt2d", "leukocyte"}) {
    batch.add(workload::rodinia_by_name(name).value(), 42);
  }
  const std::vector<std::optional<Watts>> caps = {std::nullopt, 10.0, 12.5,
                                                  15.0, 17.5, 20.0};
  // (gpu weight / cpu weight, its bucket): two ratios inside every bucket,
  // then two clamped ones.
  std::vector<std::pair<double, int>> ratios;
  for (int b = -24; b <= 24; ++b) {
    for (const double off : {-0.3, 0.3}) {
      ratios.emplace_back(std::exp2((b + off) / 4.0), b);
    }
  }
  ratios.emplace_back(std::exp2(-9.0), -24);
  ratios.emplace_back(std::exp2(9.0), 24);
  for (const auto& [ratio, bucket] : ratios) {
    ASSERT_EQ(CoRunPredictor::weight_bucket(1.0, ratio), bucket) << ratio;
  }
  const sim::DeviceKind devices[] = {sim::DeviceKind::kCpu,
                                     sim::DeviceKind::kGpu};

  for (const bool tables : {true, false}) {
    SCOPED_TRACE(tables ? "tables on" : "tables off");
    const PredictorOptions options{.analytic_tables = tables};
    const CoRunPredictor rows(*predictor_, options);
    const CoRunPredictor names(*predictor_, options);
    const std::size_t n = batch.size();
    auto name = [&](std::size_t i) -> const std::string& {
      return batch.job(i).instance_name;
    };

    for (std::size_t i = 0; i < n; ++i) {
      for (const sim::DeviceKind d : devices) {
        const JobRow r = rows.row(name(i), d);
        ASSERT_TRUE(r.profiled());
        EXPECT_EQ(r.entries != nullptr, tables);
        for (sim::FreqLevel l = 0; l <= config_->ladder(d).max_level(); ++l) {
          EXPECT_TRUE(same_bits(rows.standalone_time(r, l),
                                names.standalone_time(name(i), d, l)));
          EXPECT_TRUE(same_bits(rows.standalone_power(r, l),
                                names.standalone_power(name(i), d, l)));
        }
        for (const std::optional<Watts>& cap : caps) {
          const auto best = rows.best_solo(r, cap);
          ASSERT_EQ(best.has_value(),
                    names.best_solo_level(name(i), d, cap).has_value());
          if (best) {
            EXPECT_EQ(best->first, *names.best_solo_level(name(i), d, cap));
            EXPECT_TRUE(same_bits(best->second,
                                  names.best_solo_time(name(i), d, cap)));
          }
        }
      }
    }

    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t g = 0; g < n; ++g) {
        const JobRow cr = rows.row(name(c), sim::DeviceKind::kCpu);
        const JobRow gr = rows.row(name(g), sim::DeviceKind::kGpu);
        const CoRunPredictor::PairCells cells = rows.pair(cr, gr);
        for (sim::FreqLevel fc = 0; fc <= config_->cpu_ladder.max_level();
             ++fc) {
          for (sim::FreqLevel fg = 0; fg <= config_->gpu_ladder.max_level();
               ++fg) {
            expect_same_cell(rows.predict(cr, fc, gr, fg),
                             names.predict(name(c), fc, name(g), fg));
            expect_same_cell(cells.at(fc, fg),
                             names.predict(name(c), fc, name(g), fg));
            EXPECT_TRUE(same_bits(rows.predict_power(cr, fc, gr, fg),
                                  names.predict_power(name(c), fc, name(g),
                                                      fg)));
          }
        }
        for (const std::optional<Watts>& cap : caps) {
          for (const auto& [ratio, bucket] : ratios) {
            EXPECT_EQ(rows.best_pair_weighted(cells, cap, bucket),
                      names.best_pair_weighted(name(c), name(g), cap, 1.0,
                                               ratio))
                << "bucket " << bucket;
          }
          EXPECT_EQ(rows.best_pair_min_degradation(cells, cap),
                    names.best_pair_min_degradation(name(c), name(g), cap));
          for (const bool floor : {false, true}) {
            EXPECT_TRUE(same_bits(
                rows.min_corun_time(cells, sim::DeviceKind::kCpu, cap, floor),
                names.min_corun_time(name(c), sim::DeviceKind::kCpu, name(g),
                                     cap, floor)));
            EXPECT_TRUE(same_bits(
                rows.min_corun_time(cells, sim::DeviceKind::kGpu, cap, floor),
                names.min_corun_time(name(g), sim::DeviceKind::kGpu, name(c),
                                     cap, floor)));
          }
        }
      }
    }

    // The per-plan view: handle values at the cap, its point queries, and
    // every memoized search asked twice (a fill, then a memo hit).
    for (const std::optional<Watts>& cap : caps) {
      sched::SchedulerContext ctx;
      ctx.batch = &batch;
      ctx.predictor = &rows;
      ctx.cap = cap;
      const sched::PlanView view(ctx);
      ASSERT_EQ(view.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        for (const sim::DeviceKind d : devices) {
          EXPECT_TRUE(same_bits(
              view.t_max(i, d),
              names.standalone_time(name(i), d,
                                    config_->ladder(d).max_level())));
          EXPECT_EQ(view.best_solo_level(i, d),
                    names.best_solo_level(name(i), d, cap));
          if (view.best_solo_level(i, d)) {
            EXPECT_TRUE(same_bits(view.best_solo_time(i, d),
                                  names.best_solo_time(name(i), d, cap)));
          } else {
            EXPECT_EQ(view.best_solo_time(i, d),
                      std::numeric_limits<Seconds>::infinity());
          }
          for (sim::FreqLevel l = 0; l <= config_->ladder(d).max_level();
               ++l) {
            EXPECT_TRUE(same_bits(view.standalone_time(i, d, l),
                                  names.standalone_time(name(i), d, l)));
            EXPECT_TRUE(same_bits(view.standalone_power(i, d, l),
                                  names.standalone_power(name(i), d, l)));
          }
        }
      }
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t g = 0; g < n; ++g) {
          for (sim::FreqLevel fc = 0; fc <= config_->cpu_ladder.max_level();
               ++fc) {
            for (sim::FreqLevel fg = 0; fg <= config_->gpu_ladder.max_level();
                 ++fg) {
              expect_same_cell(view.predict(c, fc, g, fg),
                               names.predict(name(c), fc, name(g), fg));
              EXPECT_TRUE(same_bits(
                  view.predict_power(c, fc, g, fg),
                  names.predict_power(name(c), fc, name(g), fg)));
            }
          }
        }
      }
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t c = 0; c < n; ++c) {
          for (std::size_t g = 0; g < n; ++g) {
            for (const auto& [ratio, bucket] : ratios) {
              EXPECT_EQ(view.best_pair_weighted(c, g, 1.0, ratio),
                        names.best_pair_weighted(name(c), name(g), cap, 1.0,
                                                 ratio))
                  << "bucket " << bucket << ", pass " << pass;
            }
            for (const sim::DeviceKind d : devices) {
              for (const bool floor : {false, true}) {
                EXPECT_TRUE(same_bits(
                    view.min_corun_time(c, d, g, floor),
                    names.min_corun_time(name(c), d, name(g), cap, floor)));
              }
            }
          }
        }
      }
    }
  }
}

/// The weighted pair search memoizes on the exact cap. Caps within one
/// centiwatt of each other must not share an answer when a cell's power
/// lies between them: here the unconstrained best pair is feasible at a cap
/// equal to its power and infeasible one ulp below it.
TEST_F(CoRunPredictorTest, PairMemoKeysOnTheExactCap) {
  for (const bool analytic_tables : {true, false}) {
    const PredictorOptions options{.analytic_tables = analytic_tables};
    const CoRunPredictor fresh(*predictor_, options);
    const auto best = fresh.best_pair_min_makespan("dwt2d", "streamcluster",
                                                   std::nullopt);
    ASSERT_TRUE(best.has_value());
    const Watts at =
        fresh.predict_power("dwt2d", best->cpu, "streamcluster", best->gpu);
    const Watts below = std::nextafter(at, 0.0);
    ASSERT_EQ(std::llround(at * 100.0), std::llround(below * 100.0));

    const CoRunPredictor memo(*predictor_, options);
    EXPECT_NE(memo.best_pair_min_makespan("dwt2d", "streamcluster", below),
              best);
    EXPECT_EQ(memo.best_pair_min_makespan("dwt2d", "streamcluster", at),
              fresh.best_pair_min_makespan("dwt2d", "streamcluster", at));
    EXPECT_EQ(memo.best_pair_min_makespan("dwt2d", "streamcluster", at), best);
  }
}

/// Pair blocks are filled on first use by whichever search thread touches
/// them first. Every pool worker races one fresh predictor over every job
/// pair (each from a different starting pair); all must see the answers a
/// serial predictor gives. Runs under TSan on the sanitizer leg.
TEST_F(CoRunPredictorTest, FirstTouchOfPairBlocksIsRaceFree) {
  const auto jobs = db_->jobs();
  const std::size_t n = jobs.size() * jobs.size();
  struct Answer {
    std::optional<FreqPair> pair;
    Seconds min_cpu = 0.0;
    Seconds min_gpu = 0.0;
    Seconds cpu_time = 0.0;
    Watts power = 0.0;

    bool operator==(const Answer&) const = default;
  };
  auto answer_all = [&](const CoRunPredictor& p, std::size_t start) {
    std::vector<Answer> out(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (start + k) % n;
      const std::string& cpu_job = jobs[i / jobs.size()];
      const std::string& gpu_job = jobs[i % jobs.size()];
      out[i].pair = p.best_pair_weighted(cpu_job, gpu_job, 15.0, 1.0, 2.0);
      out[i].min_cpu = p.min_corun_time(cpu_job, sim::DeviceKind::kCpu,
                                        gpu_job, 12.5, false);
      out[i].min_gpu = p.min_corun_time(gpu_job, sim::DeviceKind::kGpu,
                                        cpu_job, 12.5, true);
      const PairPrediction cell = p.predict(cpu_job, 7, gpu_job, 5);
      out[i].cpu_time = cell.cpu_time;
      out[i].power = cell.power;
    }
    return out;
  };
  const CoRunPredictor serial(*predictor_, PredictorOptions{});
  const std::vector<Answer> expected = answer_all(serial, 0);

  const CoRunPredictor shared(*predictor_, PredictorOptions{});
  common::TaskPool pool(4);
  std::vector<std::vector<Answer>> got(2 * pool.jobs());
  pool.parallel_for_index(got.size(), [&](std::size_t t) {
    got[t] = answer_all(shared, t * n / got.size());
  });
  for (const std::vector<Answer>& answers : got) {
    EXPECT_TRUE(answers == expected);
  }
}

/// Blocks are filled per (CPU job, GPU job) on first use, not as a whole
/// grid: a predictor over the 16-job batch that is asked about two jobs
/// fills only the blocks of the pairs it touched, and each search counts
/// one table hit, not one per cell.
TEST_F(CoRunPredictorTest, PairBlocksFillOnlyForTouchedPairs) {
  profile::Profiler profiler(
      *config_, profile::ProfilerOptions{.cpu_levels = {0},
                                         .gpu_levels = {0}});
  const profile::ProfileDB db16 =
      profiler.profile_batch(workload::make_batch_16(42));
  const auto jobs = db16.jobs();
  ASSERT_EQ(jobs.size(), 16u);
  const std::string& a = jobs[0];
  const std::string& b = jobs[5];

  trace::reset();
  trace::set_enabled(true);
  {
    const CoRunPredictor p(db16, *grid_, *config_);
    (void)p.best_pair_min_makespan(a, b, 15.0);   // fills (a, b)
    (void)p.best_pair_min_makespan(a, b, 12.0);   // (a, b) again
    (void)p.best_pair_min_makespan(a, b, 12.0);   // memo hit: no scan
    (void)p.min_corun_time(a, sim::DeviceKind::kGpu, b, 15.0, true);  // (b, a)
    (void)p.predict(a, 3, a, 2);                  // fills (a, a)
    (void)p.best_solo_level(b, sim::DeviceKind::kCpu, 15.0);  // entry row
  }
  trace::set_enabled(false);
  double blocks = 0.0;
  double hits = 0.0;
  for (const trace::CounterTotal& t : trace::counter_totals()) {
    if (t.name == "backend.analytic_blocks") blocks = t.total;
    if (t.name == "backend.analytic_hits") hits = t.total;
  }
  trace::reset();
  EXPECT_EQ(blocks, 3.0);  // of 256
  EXPECT_EQ(hits, 5.0);
}

/// Queries outside the table domain — unknown jobs, out-of-ladder levels —
/// must fall back to the legacy path, not crash or misindex.
TEST_F(CoRunPredictorTest, AnalyticTablesFallBackOutsideDomain) {
  const CoRunPredictor tables(*predictor_,
                              PredictorOptions{.analytic_tables = true});
  const CoRunPredictor legacy(*predictor_,
                              PredictorOptions{.analytic_tables = false});
  // A ladder-clamped out-of-range level goes through entry_at both ways.
  const sim::FreqLevel over = config_->cpu_ladder.max_level() + 5;
  EXPECT_EQ(tables.standalone_time("dwt2d", sim::DeviceKind::kCpu, over),
            legacy.standalone_time("dwt2d", sim::DeviceKind::kCpu, over));
  // Unknown jobs CHECK-fail identically on both paths.
  EXPECT_THROW(
      (void)tables.standalone_time("nope", sim::DeviceKind::kCpu, 0),
      corun::ContractViolation);
}

}  // namespace
}  // namespace corun::model
