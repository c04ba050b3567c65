#include "corun/workload/kernel_descriptor.hpp"

#include "corun/common/check.hpp"

namespace corun::workload {

sim::JobSpec make_job_spec(const KernelDescriptor& desc, std::uint64_t seed) {
  CORUN_CHECK_MSG(!desc.name.empty(), "kernel descriptor needs a name");
  CORUN_CHECK(desc.input_scale > 0.0);

  const Rng root(seed);
  auto lower = [&](sim::DeviceKind d) {
    const DeviceCharacter& c = desc.character(d);
    TraceParams params{.total_time = c.base_time * desc.input_scale,
                       .compute_frac = c.compute_frac,
                       .mem_bw = c.mem_bw,
                       .phase_count = desc.phase_count,
                       .variability = desc.phase_variability,
                       .llc = {.footprint_mb = c.llc_footprint_mb,
                               .sensitivity = c.llc_sensitivity}};
    return make_phase_trace(params,
                            root.fork(desc.name + "/" + sim::device_name(d)));
  };

  sim::JobSpec spec;
  spec.name = desc.name;
  spec.cpu = lower(sim::DeviceKind::kCpu);
  spec.gpu = lower(sim::DeviceKind::kGpu);
  return spec;
}

KernelDescriptor random_descriptor(Rng& rng, const std::string& name,
                                   const RandomWorkloadParams& params) {
  CORUN_CHECK(params.min_time > 0.0 && params.max_time > params.min_time);
  CORUN_CHECK(params.max_device_skew >= 1.0);

  KernelDescriptor desc;
  desc.name = name;
  desc.phase_count = static_cast<unsigned>(rng.uniform_int(4, 20));
  desc.phase_variability = rng.uniform(0.05, 0.35);

  // One device is the "home"; the other is slower by a random skew.
  const Seconds home_time = rng.uniform(params.min_time, params.max_time);
  const double skew = rng.uniform(1.0, params.max_device_skew);
  const bool gpu_home = rng.chance(0.7);  // most OpenCL kernels lean GPU

  // Memory appetite anti-correlates with compute fraction so the synthetic
  // population spans the same compute<->memory spectrum as the suite.
  const double cf = rng.uniform(0.1, 0.9);
  const GBps bw = params.max_mem_bw * (1.1 - cf) * rng.uniform(0.6, 1.0);
  const double footprint = rng.uniform(0.3, 4.0);
  const double cpu_sens = rng.uniform(0.0, params.max_llc_sensitivity);

  DeviceCharacter home{.base_time = home_time,
                       .compute_frac = cf,
                       .mem_bw = bw,
                       .llc_footprint_mb = footprint,
                       .llc_sensitivity = cpu_sens};
  DeviceCharacter away = home;
  away.base_time = home_time * skew;
  if (gpu_home) {
    desc.gpu = home;
    desc.cpu = away;
  } else {
    desc.cpu = home;
    desc.gpu = away;
  }
  // GPUs hide eviction latency better than CPUs, always.
  desc.gpu.llc_sensitivity = desc.cpu.llc_sensitivity * rng.uniform(0.2, 0.5);
  return desc;
}

}  // namespace corun::workload
