// Search-core work and throughput on 8-job instances across an 11-cap
// ladder (10..20 W):
//
//   1. Nodes the branch-and-bound search enters on three batch families —
//      eight distinct programs, a clone-heavy batch (two programs x four
//      identical instances, the batch-server shape) and a uniform batch
//      (one program x eight shards) — against the full 511-node placement
//      tree per cap. Every plan is CORUN_CHECKed against an exhaustive scan
//      of the leaves: its predicted makespan must not exceed the best
//      leaf's. The search is serial, so the counts are the same at any
//      worker count; they are written as `*_work` keys, which
//      scripts/check_bench_regression.py compares exactly.
//   2. Planning throughput on the distinct batch (plans/sec across the
//      ladder, best of rounds) — the *_per_wall rate key the guard
//      gates on.
//   3. HCS+ throughput on the 16-job batch across the same ladder, the
//      planner every dynamic replan and fleet machine runs. Each plan is
//      CORUN_CHECKed to validate and to predict no worse than its HCS
//      seed (the refiner keeps only strict improvements).
//
// Writes BENCH_search.json.
//
//   ./bench_search_nodes [out.json]     (default: BENCH_search.json)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "corun/common/check.hpp"
#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/sched/branch_and_bound.hpp"
#include "corun/core/sched/hcs.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/core/sched/refiner.hpp"
#include "corun/core/sched/scheduler.hpp"
#include "corun/workload/batch.hpp"
#include "corun/workload/rodinia.hpp"

namespace {

using namespace corun;

std::vector<Watts> cap_ladder() {
  std::vector<Watts> caps;
  for (double cap = 10.0; cap <= 20.0; cap += 1.0) caps.push_back(cap);
  return caps;
}

sched::SchedulerContext make_ctx(const workload::Batch& batch,
                                 const model::CoRunPredictor& predictor,
                                 Watts cap) {
  sched::SchedulerContext ctx;
  ctx.batch = &batch;
  ctx.predictor = &predictor;
  ctx.cap = cap;
  return ctx;
}

/// Best predicted makespan over every leaf the search could score: each
/// full placement, per-device index order, best cap-feasible solo levels.
Seconds min_leaf_makespan(const sched::SchedulerContext& ctx) {
  const model::CoRunPredictor& m = ctx.model();
  const sched::MakespanEvaluator evaluator(ctx);
  const std::size_t n = ctx.jobs().size();
  Seconds best = std::numeric_limits<Seconds>::infinity();
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    sched::Schedule leaf;
    leaf.model_dvfs = true;
    bool feasible = true;
    for (std::size_t job = 0; job < n && feasible; ++job) {
      const bool gpu = (mask >> job) & 1u;
      const auto level = m.best_solo_level(
          ctx.job_name(job),
          gpu ? sim::DeviceKind::kGpu : sim::DeviceKind::kCpu, ctx.cap);
      feasible = level.has_value();
      if (feasible) (gpu ? leaf.gpu : leaf.cpu).push_back({job, *level});
    }
    if (feasible) best = std::min(best, evaluator.makespan(leaf));
  }
  return best;
}

/// Plans `batch` at every cap, CHECKs each plan against the exhaustive leaf
/// scan, prints a per-cap table and returns the total nodes entered.
std::size_t ladder_nodes(const char* label, const workload::Batch& batch,
                         const model::CoRunPredictor& predictor,
                         const std::vector<Watts>& caps) {
  std::size_t total = 0;
  Table table({"cap (W)", "nodes", "leaves", "dominance prunes"});
  for (const Watts cap : caps) {
    const sched::SchedulerContext ctx = make_ctx(batch, predictor, cap);
    sched::BranchAndBoundScheduler bnb;
    const sched::Schedule plan = bnb.plan(ctx);
    CORUN_CHECK_MSG(sched::MakespanEvaluator(ctx).makespan(plan) <=
                        min_leaf_makespan(ctx),
                    std::string(label) + ": plan worse than the best leaf");
    total += bnb.nodes_visited();
    table.add_row({Table::num(cap), std::to_string(bnb.nodes_visited()),
                   std::to_string(bnb.leaves_evaluated()),
                   std::to_string(bnb.dominance_prunes())});
  }
  std::printf("%s:\n%s\ntotal nodes: %zu\n\n", label, table.render().c_str(),
              total);
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Search core",
                "Branch-and-bound nodes against the full placement tree, "
                "and planning throughput.");
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_search.json";
  const bool quick = bench::quick_mode();

  const sim::MachineConfig config = sim::ivy_bridge();
  const std::vector<Watts> caps = cap_ladder();
  auto artifacts_for = [&](const workload::Batch& batch) {
    return quick ? bench::quick_artifacts(config, batch)
                 : bench::full_artifacts(config, batch);
  };
  auto clones = [](std::vector<std::pair<const char*, int>> programs) {
    workload::Batch batch;
    std::uint64_t seed = 9001;
    for (const auto& [program, copies] : programs) {
      const auto desc = workload::rodinia_by_name(program);
      CORUN_CHECK(desc.has_value());
      for (int i = 0; i < copies; ++i) {
        batch.add(*desc, seed, std::string(program) + "#" + std::to_string(i));
      }
      ++seed;
    }
    return batch;
  };

  // -- 1. Nodes entered, per batch family ---------------------------------
  const workload::Batch batch = workload::make_batch_8(42);
  const runtime::ModelArtifacts artifacts = artifacts_for(batch);
  const model::CoRunPredictor predictor(artifacts.db, artifacts.grid, config);
  const std::size_t bnb_nodes =
      ladder_nodes("distinct batch (8 programs)", batch, predictor, caps);

  const workload::Batch clone_batch = clones({{"lud", 4}, {"hotspot", 4}});
  const runtime::ModelArtifacts clone_artifacts = artifacts_for(clone_batch);
  const model::CoRunPredictor clone_predictor(clone_artifacts.db,
                                              clone_artifacts.grid, config);
  const std::size_t clone_bnb_nodes =
      ladder_nodes("clone-heavy batch (lud x4 + hotspot x4)", clone_batch,
                   clone_predictor, caps);

  const workload::Batch uniform_batch = clones({{"lud", 8}});
  const runtime::ModelArtifacts uniform_artifacts =
      artifacts_for(uniform_batch);
  const model::CoRunPredictor uniform_predictor(
      uniform_artifacts.db, uniform_artifacts.grid, config);
  const std::size_t uniform_bnb_nodes = ladder_nodes(
      "uniform clone batch (lud x8)", uniform_batch, uniform_predictor, caps);

  // Every node of the 8-job placement tree, 2^9 - 1, once per cap.
  const std::size_t full_tree_nodes =
      caps.size() * ((std::size_t{1} << (batch.size() + 1)) - 1);
  std::printf("full tree: %zu nodes over the ladder\n\n", full_tree_nodes);

  // -- 2. Planning throughput ----------------------------------------------
  const int rounds = quick ? 2 : 3;
  double best_rate = 0.0;
  for (int round = 0; round < rounds; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const Watts cap : caps) {
      const sched::SchedulerContext ctx = make_ctx(batch, predictor, cap);
      sched::BranchAndBoundScheduler bnb;
      const sched::Schedule plan = bnb.plan(ctx);
      CORUN_CHECK(plan.job_count() == batch.size());
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    if (wall > 0.0) {
      best_rate =
          std::max(best_rate, static_cast<double>(caps.size()) / wall);
    }
  }
  std::printf("search throughput: %.1f plans/s (11-cap ladder)\n", best_rate);

  // -- 3. HCS+ throughput --------------------------------------------------
  const workload::Batch batch16 = workload::make_batch_16(42);
  const runtime::ModelArtifacts artifacts16 = artifacts_for(batch16);
  const model::CoRunPredictor predictor16(artifacts16.db, artifacts16.grid,
                                          config);
  for (const Watts cap : caps) {
    const sched::SchedulerContext ctx = make_ctx(batch16, predictor16, cap);
    const sched::Schedule seed = sched::HcsScheduler().plan(ctx);
    const sched::Schedule plan = sched::HcsPlusScheduler().plan(ctx);
    plan.validate(batch16.size());
    const sched::MakespanEvaluator evaluator(ctx);
    CORUN_CHECK_MSG(evaluator.makespan(plan) <= evaluator.makespan(seed),
                    "HCS+ plan predicted worse than its HCS seed");
  }
  double hcs_plus_rate = 0.0;
  for (int round = 0; round < rounds; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const Watts cap : caps) {
      const sched::SchedulerContext ctx = make_ctx(batch16, predictor16, cap);
      const sched::Schedule plan = sched::HcsPlusScheduler().plan(ctx);
      CORUN_CHECK(plan.job_count() == batch16.size());
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    if (wall > 0.0) {
      hcs_plus_rate =
          std::max(hcs_plus_rate, static_cast<double>(caps.size()) / wall);
    }
  }
  std::printf("HCS+ throughput: %.1f plans/s (16 jobs, 11-cap ladder)\n",
              hcs_plus_rate);

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"bench\": \"search\",\n"
                "  \"bnb_nodes_work\": %zu,\n"
                "  \"clone_bnb_nodes_work\": %zu,\n"
                "  \"uniform_bnb_nodes_work\": %zu,\n"
                "  \"full_tree_nodes\": %zu,\n"
                "  \"bnb_plans_per_wall\": %.1f,\n"
                "  \"hcs_plus_plans_per_wall\": %.1f\n}\n",
                bnb_nodes, clone_bnb_nodes, uniform_bnb_nodes,
                full_tree_nodes, best_rate, hcs_plus_rate);
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  std::fputs(buf, out);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
