// Section III motivating example: pairwise co-run slowdowns for the four
// programs, the size of the schedule search space, and the best/worst
// feasible co-schedule gap under a 15 W cap.
#include <cstdio>

#include "bench_util.hpp"
#include "corun/core/sched/exhaustive.hpp"
#include "corun/core/sched/makespan_evaluator.hpp"
#include "corun/sim/backend.hpp"
#include "corun/workload/batch.hpp"

namespace {

using namespace corun;

double corun_slowdown(const sim::MachineConfig& config,
                      const sim::JobSpec& subject, sim::DeviceKind device,
                      const sim::JobSpec& partner) {
  const auto solo = sim::run_standalone(config, subject, device, 15, 9);
  sim::EngineOptions eo;
  eo.record_samples = false;
  sim::Engine engine(config, eo);
  engine.set_ceilings(15, 9);
  const sim::JobId id = engine.launch(subject, device);
  engine.launch(partner, sim::other_device(device));
  while (!engine.stats(id).finished) (void)engine.run_until_event();
  return (engine.stats(id).runtime() - solo.time) / solo.time;
}

}  // namespace

int main() {
  bench::banner("Section III example",
                "Pair sensitivity, search-space size, and best/worst "
                "co-schedule gap for {streamcluster, cfd, dwt2d, hotspot}.");

  const sim::MachineConfig config = sim::ivy_bridge();
  const workload::Batch batch = workload::make_batch_motivation(42);

  // Pairwise slowdowns with dwt2d on the CPU (the paper's example pairs).
  Table pair_table({"co-run pair (CPU+GPU)", "CPU-side slowdown",
                    "GPU-side slowdown"});
  const auto& dwt = batch.job(2).spec;
  for (const std::size_t partner : {std::size_t{0}, std::size_t{3}}) {
    const auto& p = batch.job(partner).spec;
    const double cpu_slow =
        corun_slowdown(config, dwt, sim::DeviceKind::kCpu, p);
    const double gpu_slow =
        corun_slowdown(config, p, sim::DeviceKind::kGpu, dwt);
    pair_table.add_row({"dwt2d + " + batch.job(partner).instance_name,
                        bench::pct(cpu_slow), bench::pct(gpu_slow)});
  }
  std::printf("%s\n", pair_table.render().c_str());
  std::printf("Paper reference: dwt2d+streamcluster 81%%/5%%, "
              "dwt2d+hotspot 17%%/5%% (our simulator preserves the strong\n"
              "bad-pair/good-pair contrast; see EXPERIMENTS.md for the "
              "deviation discussion).\n\n");

  // Search space: C(4,2) * C(2,1) * 10 * 16 = 1920 (paper's count).
  const std::size_t pairings = 6 * 2;
  const std::size_t freq_pairs = 16 * 10;
  std::printf("Search space for one co-run step: %zu pairings x %zu "
              "frequency pairs = %zu candidate co-schedules (paper: 1920).\n\n",
              pairings, freq_pairs, pairings * freq_pairs);

  // Best vs worst feasible co-schedule under a 15 W cap, via exhaustive
  // enumeration on the predictive model.
  const auto artifacts = bench::quick_mode()
                             ? bench::quick_artifacts(config, batch)
                             : bench::full_artifacts(config, batch);
  const model::CoRunPredictor predictor(artifacts.db, artifacts.grid, config);
  sched::SchedulerContext ctx;
  ctx.batch = &batch;
  ctx.predictor = &predictor;
  ctx.cap = 15.0;
  const sched::MakespanEvaluator evaluator(ctx);

  sched::ExhaustiveScheduler exhaustive;
  const Seconds best = evaluator.makespan(exhaustive.plan(ctx));
  // Worst: enumerate the same space, keeping the max.
  Seconds worst = 0.0;
  for (std::size_t mask = 0; mask < 16; ++mask) {
    sched::Schedule s;
    for (std::size_t i = 0; i < 4; ++i) {
      if (mask & (1u << i)) {
        s.gpu.push_back({i, 9});
      } else {
        s.cpu.push_back({i, 15});
      }
    }
    worst = std::max(worst, evaluator.makespan(s));
  }
  std::printf("Best feasible co-schedule makespan:  %.1f s\n", best);
  std::printf("Worst placement makespan:            %.1f s\n", worst);
  std::printf("Worst/best gap: %.2fx (paper: 2.3x between optimal and worst "
              "frequency/placement settings)\n", worst / best);
  return 0;
}
