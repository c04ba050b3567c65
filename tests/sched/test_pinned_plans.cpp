// Every registered planner's output pinned to recorded digests. The
// scheduler tests compare plans of one build with each other (tables on and
// off, worker counts, cache state), so a change that moved every plan the
// same way would pass them; these tests pin, per scheduler, an FNV-1a hash
// over each plan's CSV rendering plus the %.17g makespan, finish times and
// timeline that MakespanEvaluator::evaluate predicts for it, at 10, 12.5, 15
// and 20 W. The refiner's statistics (on the HCS plan it polishes) and the
// branch-and-bound search's node statistics are pinned alongside.
//
// Like PinnedTrajectory and PinnedReports, the hashes depend on the
// toolchain's libm. The artifacts' backend, seed, profiled levels and grid
// axes are set explicitly, so the CORUN_BACKEND default does not reach
// these cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/runtime/experiment.hpp"
#include "corun/core/sched/branch_and_bound.hpp"
#include "corun/core/sched/hcs.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/refiner.hpp"
#include "corun/core/sched/registry.hpp"
#include "corun/workload/batch.hpp"

namespace corun::sched {
namespace {

constexpr Watts kCaps[] = {10.0, 12.5, 15.0, 20.0};

/// Hex digest per scheduler name.
using Digests = std::map<std::string, std::string>;

struct Artifacts {
  sim::MachineConfig config = sim::ivy_bridge();
  workload::Batch batch;
  runtime::ModelArtifacts model;

  Artifacts(std::size_t jobs, std::uint64_t seed)
      : batch(jobs == 8 ? workload::make_batch_8(seed)
                        : workload::make_batch_16(seed)) {
    runtime::ArtifactOptions options;
    options.seed = seed;
    options.backend = sim::BackendSpec{.kind = sim::BackendKind::kEvent,
                                       .replay_path = {}};
    options.cpu_levels = {0, 5, 10};
    options.gpu_levels = {0, 3, 6};
    options.grid_axis = {0.0, 4.0, 8.0, 11.0};
    model = runtime::build_artifacts(config, batch, options);
  }
};

const Artifacts& artifacts(std::size_t jobs, std::uint64_t seed) {
  static std::map<std::pair<std::size_t, std::uint64_t>,
                  std::unique_ptr<Artifacts>>
      built;
  auto& slot = built[{jobs, seed}];
  if (slot == nullptr) slot = std::make_unique<Artifacts>(jobs, seed);
  return *slot;
}

void put(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g,", v);
  out += buf;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// The plan's CSV plus everything the evaluator predicts for it.
void put_plan(std::string& out, const SchedulerContext& ctx,
              const Schedule& plan) {
  std::ostringstream csv;
  schedule_to_csv(plan, ctx.job_names(), csv);
  out += csv.str();
  const Evaluation e = MakespanEvaluator(ctx).evaluate(plan);
  put(out, e.makespan);
  for (const Seconds t : e.finish_time) put(out, t);
  for (const EvalSegment& s : e.timeline) {
    put(out, s.start);
    put(out, s.end);
    put(out, s.cpu_job ? static_cast<double>(*s.cpu_job) : -1.0);
    put(out, s.gpu_job ? static_cast<double>(*s.gpu_job) : -1.0);
    put(out, s.levels.cpu);
    put(out, s.levels.gpu);
    put(out, s.cpu_degradation);
    put(out, s.gpu_degradation);
  }
}

/// Digest of every scheduler that accepts the batch over the cap ladder,
/// keyed by scheduler name, plus "refiner" and "bnb-search" for the
/// statistics.
Digests digests(const Artifacts& a, bool analytic_tables) {
  const model::CoRunPredictor predictor(
      a.model.db, a.model.grid, a.config,
      model::PredictorOptions{.analytic_tables = analytic_tables});
  std::map<std::string, std::string> text;
  for (const Watts cap : kCaps) {
    SchedulerContext ctx;
    ctx.batch = &a.batch;
    ctx.predictor = &predictor;
    ctx.cap = cap;
    for (const std::string& name : scheduler_names()) {
      if (name == "exhaustive" && a.batch.size() > 8) continue;
      if (name == "bnb" && a.batch.size() > 12) continue;
      put_plan(text[name], ctx, make_scheduler(name, 7)->plan(ctx));
    }

    const Refiner refiner;
    (void)refiner.refine(ctx, HcsScheduler().plan(ctx));
    const RefinerStats& r = refiner.last_stats();
    std::string& refined = text["refiner"];
    put(refined, r.adjacent_improvements);
    put(refined, r.random_improvements);
    put(refined, r.cross_improvements);
    put(refined, r.initial_makespan);
    put(refined, r.final_makespan);

    if (a.batch.size() <= 12) {
      BranchAndBoundScheduler bnb;
      (void)bnb.plan(ctx);
      std::string& search = text["bnb-search"];
      put(search, static_cast<double>(bnb.nodes_visited()));
      put(search, static_cast<double>(bnb.bound_prunes()));
      put(search, static_cast<double>(bnb.dominance_prunes()));
      put(search, static_cast<double>(bnb.leaves_evaluated()));
      put(search, static_cast<double>(bnb.incumbent_updates()));
    }
  }
  Digests out;
  for (const auto& [name, s] : text) out[name] = hex(fnv1a(s));
  return out;
}

void expect_pinned(std::size_t jobs, std::uint64_t seed, bool analytic_tables,
                   const Digests& expected) {
  const Digests got = digests(artifacts(jobs, seed), analytic_tables);
  EXPECT_EQ(got.size(), expected.size());
  for (const auto& [name, hash] : got) {
    const auto it = expected.find(name);
    EXPECT_EQ(hash, it == expected.end() ? "" : it->second)
        << name << " on make_batch_" << jobs << "(" << seed << "), tables "
        << (analytic_tables ? "on" : "off");
  }
}

// Recorded before the planners resolved jobs to table rows per plan.
const Digests kEight1 = {
    {"bnb", "2cad065464c2a45e"},
    {"bnb-search", "a19d5d2bd017ae7e"},
    {"default", "56606593b2fe3163"},
    {"exhaustive", "c1ec81630012174d"},
    {"hcs", "de2e48a92f7f2851"},
    {"hcs+", "4b84d9a3741f8002"},
    {"random", "36a328068310a1f1"},
    {"refiner", "5855b5ca1e443887"},
    {"thermal", "d008ebd51c44cc13"},
};

const Digests kEight2 = {
    {"bnb", "e36ea5a2fd10fbdc"},
    {"bnb-search", "1e7de7e359d62ba3"},
    {"default", "1ac4a9dca2a3ad52"},
    {"exhaustive", "edf79c51a9e27dea"},
    {"hcs", "ab13b19fd236ab8e"},
    {"hcs+", "1c1d1a45e3696f03"},
    {"random", "248d3c7e9022f740"},
    {"refiner", "008a646afcd3d35b"},
    {"thermal", "b063fe95ebc9bd3b"},
};

const Digests kEight3 = {
    {"bnb", "fe2913688252d3f0"},
    {"bnb-search", "e24752ca19f2ef62"},
    {"default", "7328324b72445742"},
    {"exhaustive", "0e8dd2fc3bf3d16d"},
    {"hcs", "4fcc58def81d272f"},
    {"hcs+", "71407ceb65dc2050"},
    {"random", "ea590f136ac92cbd"},
    {"refiner", "d2d1e84c57e91d87"},
    {"thermal", "9a385a9e0f63d157"},
};

const Digests kSixteen1 = {
    {"default", "5813e24a7a4cb2ea"},
    {"hcs", "71599c1e85331f33"},
    {"hcs+", "953f71cb99b9596d"},
    {"random", "49c06e3c007ed626"},
    {"refiner", "7d899c1192b92024"},
    {"thermal", "e7119f6b74691a83"},
};

const Digests kSixteen2 = {
    {"default", "d15602772f488096"},
    {"hcs", "fb3050be87fb0bf6"},
    {"hcs+", "f601ed19f9e66ad5"},
    {"random", "16d3c1ee3a523025"},
    {"refiner", "884e3775b6a7e043"},
    {"thermal", "306514854cfb0179"},
};

const Digests kSixteen3 = {
    {"default", "3ff449e0d275f35d"},
    {"hcs", "01fdad75e3183a52"},
    {"hcs+", "e982c9865f2d2e63"},
    {"random", "14a7903dc80cd61a"},
    {"refiner", "d3a2d6fd41129596"},
    {"thermal", "cad8bd964f17dbb9"},
};

TEST(PinnedPlans, EightJobsSeed1) { expect_pinned(8, 1, true, kEight1); }
TEST(PinnedPlans, EightJobsSeed2) { expect_pinned(8, 2, true, kEight2); }
TEST(PinnedPlans, EightJobsSeed3) { expect_pinned(8, 3, true, kEight3); }
TEST(PinnedPlans, SixteenJobsSeed1) { expect_pinned(16, 1, true, kSixteen1); }
TEST(PinnedPlans, SixteenJobsSeed2) { expect_pinned(16, 2, true, kSixteen2); }
TEST(PinnedPlans, SixteenJobsSeed3) { expect_pinned(16, 3, true, kSixteen3); }

// With the tables off every answer comes from the on-demand path, whose
// bits the tables reproduce, so the plans are the tables-on plans.
TEST(PinnedPlans, EightJobsSeed1TablesOff) {
  expect_pinned(8, 1, false, kEight1);
}
TEST(PinnedPlans, SixteenJobsSeed1TablesOff) {
  expect_pinned(16, 1, false, kSixteen1);
}

}  // namespace
}  // namespace corun::sched
