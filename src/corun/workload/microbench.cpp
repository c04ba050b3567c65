#include "corun/workload/microbench.hpp"

#include <cmath>

#include "corun/common/check.hpp"
#include "corun/sim/backend.hpp"

namespace corun::workload {
namespace {

// Source-to-character mapping constants. Each outer iteration moves
// 12 bytes per work item (two 4-byte reads, one 4-byte write) and executes
// 2 * j_max register ops (add + modulo). Aggregate device throughputs are
// rough Ivy Bridge figures; they only shape the j_max <-> compute-fraction
// exchange rate, not the simulated timing (which uses the descriptor).
constexpr double kBytesPerItemIter = 12.0;
constexpr double kOpsPerInnerIter = 2.0;
constexpr double kDeviceGops = 60.0;  // aggregate ops throughput, Gop/s

}  // namespace

std::vector<GBps> micro_grid_levels() {
  std::vector<GBps> levels(11);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    levels[i] = 1.1 * static_cast<double>(i);
  }
  return levels;
}

Expected<KernelDescriptor> micro_kernel(GBps target_bw, Seconds duration) {
  if (target_bw < 0.0 || target_bw > kMicroStreamBw) {
    return fail("micro-benchmark target bandwidth " + std::to_string(target_bw) +
                " GB/s outside [0, " + std::to_string(kMicroStreamBw) + "]", ErrorCategory::kInvalidArgument);
  }
  CORUN_CHECK(duration > 0.0);

  // Standalone at max frequency the average demand is
  // (1 - compute_frac) * stream_bw, so the compute fraction follows directly.
  const double cf = 1.0 - target_bw / kMicroStreamBw;
  const GBps bw = target_bw > 0.0 ? kMicroStreamBw : 0.0;

  KernelDescriptor desc;
  desc.name = "micro_" + std::to_string(target_bw);
  // Streaming arrays churn the whole LLC (full-footprint pressure on the
  // co-runner) but have almost no reuse themselves, so the stressor barely
  // suffers from eviction — the asymmetry that keeps the characterization
  // grid blind to cache-reuse effects, as on the real machine.
  desc.cpu = {.base_time = duration, .compute_frac = cf, .mem_bw = bw,
              .llc_footprint_mb = target_bw > 0.0 ? 4.0 : 0.0,
              .llc_sensitivity = 0.02};
  desc.gpu = desc.cpu;
  desc.num_args = 3;  // in_data_1, in_data_2, out_data
  desc.phase_count = 1;
  desc.phase_variability = 0.0;  // a stressor must be steady
  return desc;
}

Expected<MicroSourceParams> micro_source_for(GBps target_bw) {
  if (target_bw < 0.0 || target_bw > kMicroStreamBw) {
    return fail("target bandwidth out of range", ErrorCategory::kInvalidArgument);
  }
  MicroSourceParams params;
  if (target_bw <= 0.0) {
    params.j_max = 1 << 20;  // effectively pure compute
    return params;
  }
  // time_mem / time_total = target / stream  =>
  // time_comp / time_mem = stream/target - 1, and
  // time_comp/time_mem = (ops/Gops) / (bytes/stream_bw).
  const double comp_over_mem = kMicroStreamBw / target_bw - 1.0;
  const double bytes_time = kBytesPerItemIter / (kMicroStreamBw * 1e9);
  const double ops_needed = comp_over_mem * bytes_time * (kDeviceGops * 1e9);
  params.j_max = std::max(0, static_cast<int>(ops_needed / kOpsPerInnerIter + 0.5));
  return params;
}

GBps micro_bandwidth_of(const MicroSourceParams& params) {
  const double time_mem = kBytesPerItemIter / (kMicroStreamBw * 1e9);
  const double time_comp =
      kOpsPerInnerIter * params.j_max / (kDeviceGops * 1e9);
  return kMicroStreamBw * time_mem / (time_mem + time_comp);
}

GBps measure_micro_bandwidth(const sim::MachineConfig& config,
                             const KernelDescriptor& desc,
                             sim::DeviceKind device) {
  const sim::JobSpec spec = make_job_spec(desc, /*seed=*/1);
  const sim::StandaloneResult result =
      sim::run_standalone(config, spec, device, config.cpu_ladder.max_level(),
                          config.gpu_ladder.max_level());
  return result.avg_bandwidth;
}

}  // namespace corun::workload
