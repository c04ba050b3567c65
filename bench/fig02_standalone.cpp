// Figure 2: standalone performance of streamcluster, cfd, dwt2d and hotspot
// on the CPU vs the GPU (both at max frequency, no cap). The paper plots
// normalized performance; we print times and the CPU/GPU speedup so the
// preferences (GPU for three of them, CPU for dwt2d) are explicit.
#include <cstdio>

#include "bench_util.hpp"
#include "corun/sim/backend.hpp"
#include "corun/workload/rodinia.hpp"

int main() {
  using namespace corun;
  bench::banner("Figure 2", "Standalone performance of the four motivating "
                            "programs on CPU and GPU (max frequency).");

  const sim::MachineConfig config = sim::ivy_bridge();
  Table table({"program", "CPU time (s)", "GPU time (s)", "GPU speedup",
               "preferred"});
  for (const auto& desc : workload::rodinia_motivation_four()) {
    const sim::JobSpec spec = workload::make_job_spec(desc, 42);
    const auto cpu = sim::run_standalone(config, spec, sim::DeviceKind::kCpu,
                                         15, 9);
    const auto gpu = sim::run_standalone(config, spec, sim::DeviceKind::kGpu,
                                         15, 9);
    const double speedup = cpu.time / gpu.time;
    table.add_row({desc.name, Table::num(cpu.time), Table::num(gpu.time),
                   Table::num(speedup) + "x",
                   speedup > 1.0 ? "GPU" : "CPU"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper reference: streamcluster 2.5x, cfd 1.8x, hotspot 2.4x "
              "faster on GPU; dwt2d 2.5x faster on CPU.\n");
  return 0;
}
