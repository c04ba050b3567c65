// Ablation: the scheduler quality/cost frontier. Compares every planner in
// the library — Random, Default, HCS, HCS+, branch-and-bound, exhaustive —
// on ground-truth makespan and planning wall time, tying the NP-hardness
// discussion (Sec. IV) to numbers: how close does the linear-time heuristic
// get to exact search, and what does exactness cost?
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "corun/core/runtime/experiment.hpp"
#include "corun/core/sched/branch_and_bound.hpp"
#include "corun/core/sched/default_scheduler.hpp"
#include "corun/core/sched/exhaustive.hpp"
#include "corun/core/sched/hcs.hpp"
#include "corun/core/sched/lower_bound.hpp"
#include "corun/core/sched/random_scheduler.hpp"
#include "corun/core/sched/refiner.hpp"

int main() {
  using namespace corun;
  bench::banner("Ablation: scheduler quality/cost frontier",
                "Ground-truth makespan and planning cost for every planner "
                "(motivation batch: 4 jobs; study batch: 8 jobs; 15 W cap).");

  const sim::MachineConfig config = sim::ivy_bridge();

  for (const std::size_t n : {std::size_t{4}, std::size_t{8}}) {
    const workload::Batch batch = n == 4 ? workload::make_batch_motivation(42)
                                         : workload::make_batch_8(42);
    const auto artifacts = bench::quick_artifacts(config, batch);
    const model::CoRunPredictor predictor(artifacts.db, artifacts.grid, config);
    sched::SchedulerContext ctx;
    ctx.batch = &batch;
    ctx.predictor = &predictor;
    ctx.cap = 15.0;

    runtime::RuntimeOptions rt;
    rt.cap = 15.0;
    rt.predictor = &predictor;
    const runtime::CoRunRuntime runner(config, rt);

    std::printf("--- %zu jobs ---\n", n);
    Table table({"scheduler", "makespan (s)", "plan time (ms)"});
    auto add = [&](sched::Scheduler& s) {
      const auto t0 = std::chrono::steady_clock::now();
      const sched::Schedule schedule = s.plan(ctx);
      const auto t1 = std::chrono::steady_clock::now();
      const Seconds makespan = runner.execute(batch, schedule).makespan;
      table.add_row({s.name(), Table::num(makespan),
                     Table::num(std::chrono::duration<double, std::milli>(
                                    t1 - t0)
                                    .count(),
                                2)});
    };

    sched::RandomScheduler random(7);
    add(random);
    sched::DefaultScheduler def;
    add(def);
    sched::HcsScheduler hcs;
    add(hcs);
    sched::HcsPlusScheduler hcs_plus;
    add(hcs_plus);
    sched::BranchAndBoundScheduler bnb;
    add(bnb);
    if (n <= 4) {
      sched::ExhaustiveScheduler exhaustive;
      add(exhaustive);
    }
    const sched::LowerBoundResult lb = sched::compute_lower_bound(ctx);
    table.add_row({"(lower bound)", Table::num(lb.t_low_tight), "-"});
    std::printf("%s\n", table.render().c_str());
    std::printf("BnB search: %zu nodes, %zu pruned, %zu leaves\n\n",
                bnb.nodes_visited(), bnb.nodes_pruned(),
                bnb.leaves_evaluated());
  }
  return 0;
}
