// The randomized scenario corpus shared by the engine/backend equivalence
// suites (tests/sim/test_engine_equivalence.cpp,
// tests/sim/test_backend_equivalence.cpp) and the backend fidelity bench
// (bench/bench_backend_fidelity.cpp).
//
// A Scenario is everything a run does, decided up front, so every backend
// executes the exact same script: engine options (cap on/off, windowed
// enforcement, meter noise on/off, sampling cadence), ceilings, and a staged
// launch sequence mixing 1-3 CPU jobs (2+ = oversubscription) with an
// optional GPU co-runner. Seeds map deterministically to scenarios, so
// "seed 17" names the same workload everywhere.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corun/common/rng.hpp"
#include "corun/sim/engine.hpp"

namespace corun::sim {

/// Everything a scenario does, decided up front so every backend executes
/// the exact same script.
struct LaunchStep {
  Seconds advance_before = 0.0;  ///< run_for() this long, then launch
  JobSpec spec;
  DeviceKind device = DeviceKind::kCpu;
};

struct Scenario {
  EngineOptions options;  ///< mode overwritten per execution
  FreqLevel cpu_ceiling = 15;
  FreqLevel gpu_ceiling = 9;
  std::vector<LaunchStep> steps;
};

inline JobSpec random_corpus_job(Rng& rng, int tag) {
  JobSpec spec;
  spec.name = "rand_" + std::to_string(tag);
  for (DeviceKind d : {DeviceKind::kCpu, DeviceKind::kGpu}) {
    std::vector<Phase> phases;
    const int n = static_cast<int>(rng.uniform_int(1, 4));
    for (int p = 0; p < n; ++p) {
      phases.push_back(Phase{.dur_ref = rng.uniform(0.3, 6.0),
                             .compute_frac = rng.uniform(0.0, 1.0),
                             .mem_bw = rng.uniform(0.0, 11.0)});
    }
    (d == DeviceKind::kCpu ? spec.cpu : spec.gpu) = DeviceProfile(phases);
  }
  return spec;
}

inline Scenario random_scenario(std::uint64_t seed) {
  Rng rng(seed * 1315423911ULL + 17);
  Scenario s;
  s.options.seed = seed + 1;
  s.options.record_samples = true;
  s.options.sample_interval = rng.chance(0.5) ? 0.5 : 1.0;
  s.options.meter_noise_stddev = rng.chance(0.7) ? 0.25 : 0.0;
  if (rng.chance(0.5)) {
    s.options.power_cap = rng.uniform(11.0, 20.0);
    s.options.policy = rng.chance(0.5) ? GovernorPolicy::kGpuBiased
                                       : GovernorPolicy::kCpuBiased;
    if (rng.chance(0.4)) s.options.cap_window = 1.0;
  }
  s.cpu_ceiling = static_cast<FreqLevel>(rng.uniform_int(4, 15));
  s.gpu_ceiling = static_cast<FreqLevel>(rng.uniform_int(3, 9));

  // 1-3 CPU jobs (2+ = oversubscription) and usually a GPU co-runner.
  const int cpu_jobs = static_cast<int>(rng.uniform_int(1, 3));
  int tag = 0;
  for (int j = 0; j < cpu_jobs; ++j) {
    LaunchStep step;
    step.advance_before = j == 0 ? 0.0 : rng.uniform(0.3, 2.5);
    step.spec = random_corpus_job(rng, tag++);
    step.device = DeviceKind::kCpu;
    s.steps.push_back(step);
  }
  if (rng.chance(0.8)) {
    LaunchStep step;
    step.advance_before = rng.chance(0.5) ? 0.0 : rng.uniform(0.3, 2.5);
    step.spec = random_corpus_job(rng, tag++);
    step.device = DeviceKind::kGpu;
    s.steps.push_back(step);
  }
  return s;
}

/// Runs the scenario's script to completion against any backend.
inline void run_scenario(const Scenario& s, Engine& machine) {
  machine.set_ceilings(s.cpu_ceiling, s.gpu_ceiling);
  for (const LaunchStep& step : s.steps) {
    if (step.advance_before > 0.0) (void)machine.run_for(step.advance_before);
    machine.launch(step.spec, step.device);
  }
  machine.run_until_idle();
}

/// Runs the scenario's script to completion on an Engine in the given mode.
inline Engine execute_scenario(const Scenario& s, EngineMode mode) {
  EngineOptions options = s.options;
  options.mode = mode;
  Engine engine(ivy_bridge(), options);
  run_scenario(s, engine);
  return engine;
}

}  // namespace corun::sim
