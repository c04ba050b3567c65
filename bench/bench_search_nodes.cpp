// Search-core payoff: what the strengthened branch-and-bound actually
// saves over the historical search on 8-job instances. Three measurements
// across an 11-cap ladder (10..20 W):
//
//   1. Node counts on the 8-distinct-program batch: the historical search
//      (strong bound and dominance both off — bit-identical to the
//      pre-strengthening solver) vs the default search, with the returned
//      schedules CORUN_CHECKed byte-identical at every cap.
//   2. Node counts on a clone-heavy 8-job batch (two programs x four
//      identical instances, the batch-server shape). Tied leaves defeat
//      the historical search's strict bound test, so this is where it
//      degenerates toward the full tree — and exactly what the run-based
//      dominance rules fold away. This is the acceptance headline: a >=5x
//      node reduction, byte-identical at every cap (docs/search.md walks
//      through why the distinct-program reduction is structurally capped
//      near ~2x by the frozen fan-out while the clone fold is not).
//   3. Planning throughput of the default search (plans/sec across the
//      ladder, best of rounds) — the *_per_wall rate key
//      scripts/check_bench_regression.py gates on.
//
// Writes BENCH_search.json.
//
//   ./bench_search_nodes [out.json]     (default: BENCH_search.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "corun/common/check.hpp"
#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/sched/branch_and_bound.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Search core",
                "Strong-bound + dominance node savings vs the historical "
                "B&B, and planning throughput.");
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_search.json";
  const bool quick = bench::quick_mode();

  const sim::MachineConfig config = sim::ivy_bridge();
  const workload::Batch batch = workload::make_batch_8(42);
  const runtime::ModelArtifacts artifacts =
      quick ? bench::quick_artifacts(config, batch)
            : bench::full_artifacts(config, batch);
  const model::CoRunPredictor predictor(artifacts.db, artifacts.grid, config);
  const std::vector<Watts> caps = cap_ladder();

  sched::BranchAndBoundOptions legacy_options;
  legacy_options.strong_bound = false;
  legacy_options.dominance = false;

  // -- 1. Node counts, historical vs strengthened search -------------------
  std::size_t legacy_nodes = 0;
  std::size_t strong_nodes = 0;
  std::size_t dominance_prunes = 0;
  Table table({"cap (W)", "legacy nodes", "strong nodes", "reduction"});
  for (const Watts cap : caps) {
    const sched::SchedulerContext ctx = make_ctx(batch, predictor, cap);
    sched::BranchAndBoundScheduler legacy(legacy_options);
    sched::BranchAndBoundScheduler strong;
    const sched::Schedule legacy_plan = legacy.plan(ctx);
    const sched::Schedule strong_plan = strong.plan(ctx);
    CORUN_CHECK_MSG(strong_plan.to_string(ctx.job_names()) ==
                        legacy_plan.to_string(ctx.job_names()),
                    "strengthened search changed the schedule");
    legacy_nodes += legacy.nodes_visited();
    strong_nodes += strong.nodes_visited();
    dominance_prunes += strong.dominance_prunes();
    table.add_row({Table::num(cap), std::to_string(legacy.nodes_visited()),
                   std::to_string(strong.nodes_visited()),
                   Table::num(static_cast<double>(legacy.nodes_visited()) /
                              static_cast<double>(std::max<std::size_t>(
                                  strong.nodes_visited(), 1))) +
                       "x"});
  }
  const double node_reduction_x =
      strong_nodes > 0
          ? static_cast<double>(legacy_nodes) / static_cast<double>(strong_nodes)
          : 0.0;
  std::printf("%s\n", table.render().c_str());
  std::printf("total nodes: legacy %zu, strong %zu (%.1fx reduction, "
              "%zu dominance prunes)\n\n",
              legacy_nodes, strong_nodes, node_reduction_x, dominance_prunes);

  // -- 1b. Node counts on the clone-heavy batch ----------------------------
  workload::Batch clone_batch;
  {
    const auto lud = workload::rodinia_by_name("lud");
    const auto hotspot = workload::rodinia_by_name("hotspot");
    CORUN_CHECK(lud.has_value() && hotspot.has_value());
    for (int i = 0; i < 4; ++i) {
      clone_batch.add(*lud, 9001, "lud#" + std::to_string(i));
    }
    for (int i = 0; i < 4; ++i) {
      clone_batch.add(*hotspot, 9002, "hotspot#" + std::to_string(i));
    }
  }
  const runtime::ModelArtifacts clone_artifacts =
      quick ? bench::quick_artifacts(config, clone_batch)
            : bench::full_artifacts(config, clone_batch);
  const model::CoRunPredictor clone_predictor(clone_artifacts.db,
                                              clone_artifacts.grid, config);
  std::size_t clone_legacy_nodes = 0;
  std::size_t clone_strong_nodes = 0;
  std::size_t clone_dominance_prunes = 0;
  Table clone_table({"cap (W)", "legacy nodes", "strong nodes", "reduction"});
  for (const Watts cap : caps) {
    const sched::SchedulerContext ctx =
        make_ctx(clone_batch, clone_predictor, cap);
    sched::BranchAndBoundScheduler legacy(legacy_options);
    sched::BranchAndBoundScheduler strong;
    const sched::Schedule legacy_plan = legacy.plan(ctx);
    const sched::Schedule strong_plan = strong.plan(ctx);
    CORUN_CHECK_MSG(strong_plan.to_string(ctx.job_names()) ==
                        legacy_plan.to_string(ctx.job_names()),
                    "clone-batch fold changed the schedule");
    clone_legacy_nodes += legacy.nodes_visited();
    clone_strong_nodes += strong.nodes_visited();
    clone_dominance_prunes += strong.dominance_prunes();
    clone_table.add_row(
        {Table::num(cap), std::to_string(legacy.nodes_visited()),
         std::to_string(strong.nodes_visited()),
         Table::num(static_cast<double>(legacy.nodes_visited()) /
                    static_cast<double>(
                        std::max<std::size_t>(strong.nodes_visited(), 1))) +
             "x"});
  }
  const double clone_node_reduction_x =
      clone_strong_nodes > 0 ? static_cast<double>(clone_legacy_nodes) /
                                   static_cast<double>(clone_strong_nodes)
                             : 0.0;
  std::printf("clone-heavy batch (lud x4 + hotspot x4):\n%s\n",
              clone_table.render().c_str());
  std::printf("clone totals: legacy %zu, strong %zu (%.1fx reduction, "
              "%zu dominance prunes)\n\n",
              clone_legacy_nodes, clone_strong_nodes, clone_node_reduction_x,
              clone_dominance_prunes);

  // -- 1c. Node counts on the uniform clone batch --------------------------
  // Eight shards of one program — the purest batch-server instance and the
  // historical search's worst case: every leaf in a per-device-count class
  // ties, so the strict bound test prunes almost nothing, while the orbit
  // fold collapses the 32 frontier subtrees to the six distinct CPU-count
  // prefixes.
  workload::Batch uniform_batch;
  {
    const auto lud = workload::rodinia_by_name("lud");
    CORUN_CHECK(lud.has_value());
    for (int i = 0; i < 8; ++i) {
      uniform_batch.add(*lud, 9001, "lud#" + std::to_string(i));
    }
  }
  const runtime::ModelArtifacts uniform_artifacts =
      quick ? bench::quick_artifacts(config, uniform_batch)
            : bench::full_artifacts(config, uniform_batch);
  const model::CoRunPredictor uniform_predictor(
      uniform_artifacts.db, uniform_artifacts.grid, config);
  std::size_t uniform_legacy_nodes = 0;
  std::size_t uniform_strong_nodes = 0;
  Table uniform_table({"cap (W)", "legacy nodes", "strong nodes", "reduction"});
  for (const Watts cap : caps) {
    const sched::SchedulerContext ctx =
        make_ctx(uniform_batch, uniform_predictor, cap);
    sched::BranchAndBoundScheduler legacy(legacy_options);
    sched::BranchAndBoundScheduler strong;
    const sched::Schedule legacy_plan = legacy.plan(ctx);
    const sched::Schedule strong_plan = strong.plan(ctx);
    CORUN_CHECK_MSG(strong_plan.to_string(ctx.job_names()) ==
                        legacy_plan.to_string(ctx.job_names()),
                    "uniform-clone fold changed the schedule");
    uniform_legacy_nodes += legacy.nodes_visited();
    uniform_strong_nodes += strong.nodes_visited();
    uniform_table.add_row(
        {Table::num(cap), std::to_string(legacy.nodes_visited()),
         std::to_string(strong.nodes_visited()),
         Table::num(static_cast<double>(legacy.nodes_visited()) /
                    static_cast<double>(
                        std::max<std::size_t>(strong.nodes_visited(), 1))) +
             "x"});
  }
  const double uniform_node_reduction_x =
      uniform_strong_nodes > 0 ? static_cast<double>(uniform_legacy_nodes) /
                                     static_cast<double>(uniform_strong_nodes)
                               : 0.0;
  std::printf("uniform clone batch (lud x8):\n%s\n",
              uniform_table.render().c_str());
  std::printf("uniform totals: legacy %zu, strong %zu (%.1fx reduction)\n\n",
              uniform_legacy_nodes, uniform_strong_nodes,
              uniform_node_reduction_x);

  // -- 2. Planning throughput of the default search ------------------------
  const int rounds = quick ? 2 : 3;
  double best_rate = 0.0;
  for (int round = 0; round < rounds; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const Watts cap : caps) {
      const sched::SchedulerContext ctx = make_ctx(batch, predictor, cap);
      sched::BranchAndBoundScheduler strong;
      const sched::Schedule plan = strong.plan(ctx);
      CORUN_CHECK(plan.job_count() == batch.size());
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    if (wall > 0.0) {
      best_rate =
          std::max(best_rate, static_cast<double>(caps.size()) / wall);
    }
  }

  std::printf("strong search throughput: %.1f plans/s (11-cap ladder)\n",
              best_rate);

  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"bench\": \"search\",\n"
                "  \"legacy_bnb_nodes\": %zu,\n"
                "  \"strong_bnb_nodes\": %zu,\n"
                "  \"node_reduction_x\": %.1f,\n"
                "  \"dominance_prunes\": %zu,\n"
                "  \"clone_legacy_bnb_nodes\": %zu,\n"
                "  \"clone_strong_bnb_nodes\": %zu,\n"
                "  \"clone_node_reduction_x\": %.1f,\n"
                "  \"clone_dominance_prunes\": %zu,\n"
                "  \"uniform_legacy_bnb_nodes\": %zu,\n"
                "  \"uniform_strong_bnb_nodes\": %zu,\n"
                "  \"uniform_node_reduction_x\": %.1f,\n"
                "  \"strong_plans_per_wall\": %.1f\n}\n",
                legacy_nodes, strong_nodes, node_reduction_x, dominance_prunes,
                clone_legacy_nodes, clone_strong_nodes, clone_node_reduction_x,
                clone_dominance_prunes, uniform_legacy_nodes,
                uniform_strong_nodes, uniform_node_reduction_x, best_rate);
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
