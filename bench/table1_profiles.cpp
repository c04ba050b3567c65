// Table I: standalone execution times (offline profiles) and the minimal
// co-run time with the least-degrading partner (predicted by the
// performance model), plus the preference classification.
#include <cstdio>

#include "bench_util.hpp"
#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/sched/hcs.hpp"
#include "corun/workload/batch.hpp"

int main() {
  using namespace corun;
  bench::banner("Table I",
                "Standalone times, model-predicted minimal co-run times, and "
                "processor preference for the eight programs.");

  const sim::MachineConfig config = sim::ivy_bridge();
  const workload::Batch batch = workload::make_batch_8(42);
  const auto artifacts = bench::quick_mode()
                             ? bench::quick_artifacts(config, batch)
                             : bench::full_artifacts(config, batch);
  const model::CoRunPredictor predictor(artifacts.db, artifacts.grid, config);

  sched::SchedulerContext ctx;
  ctx.batch = &batch;
  ctx.predictor = &predictor;
  const sched::PlanView view(ctx);
  const sched::HcsScheduler hcs;

  Table table({"job", "min corun (CPU)", "min corun (GPU)",
               "standalone (CPU)", "standalone (GPU)", "preferred"});
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::string job = batch.job(i).instance_name;
    // Minimal co-run time: least-interfering partner at max frequencies.
    auto min_corun = [&](sim::DeviceKind device) {
      Seconds best = 1e18;
      for (std::size_t j = 0; j < batch.size(); ++j) {
        if (j == i) continue;
        const std::string partner = batch.job(j).instance_name;
        const model::PairPrediction p =
            device == sim::DeviceKind::kCpu
                ? predictor.predict(job, 15, partner, 9)
                : predictor.predict(partner, 15, job, 9);
        best = std::min(best, device == sim::DeviceKind::kCpu ? p.cpu_time
                                                              : p.gpu_time);
      }
      return best;
    };
    const sched::Preference pref = hcs.categorize(view, i);
    table.add_row({job, Table::num(min_corun(sim::DeviceKind::kCpu)),
                   Table::num(min_corun(sim::DeviceKind::kGpu)),
                   Table::num(predictor.standalone_time(job,
                                                        sim::DeviceKind::kCpu,
                                                        15)),
                   Table::num(predictor.standalone_time(job,
                                                        sim::DeviceKind::kGpu,
                                                        9)),
                   sched::preference_name(pref)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper reference rows (standalone CPU/GPU): streamcluster "
              "59.71/23.72, cfd 49.69/26.32, dwt2d 24.37/61.66, hotspot "
              "70.24/28.52, srad 51.39/23.71, lud 27.76/24.83, leukocyte "
              "50.88/23.08, heartwall 54.68/22.99.\n");
  std::printf("Preference row: GPU GPU CPU GPU GPU Non GPU GPU.\n");
  return 0;
}
