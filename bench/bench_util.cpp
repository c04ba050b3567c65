#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>

#include "corun/common/csv.hpp"
#include "corun/common/task_pool.hpp"

namespace corun::bench {

void banner(const std::string& figure, const std::string& description) {
  const std::size_t jobs = init_jobs();
  std::printf("\n=== %s ===\n%s\n", figure.c_str(), description.c_str());
  std::printf("(reproduction of: Zhu et al., \"Co-Run Scheduling with Power "
              "Cap on Integrated CPU-GPU Systems\", IPDPS 2017; "
              "%zu worker threads, %s backend; set CORUN_JOBS / CORUN_BACKEND "
              "to override)\n\n",
              jobs, sim::default_backend_spec().name().c_str());
}

runtime::ModelArtifacts full_artifacts(const sim::MachineConfig& config,
                                       const workload::Batch& batch,
                                       std::uint64_t seed) {
  runtime::ArtifactOptions options;
  options.seed = seed;
  return runtime::build_artifacts(config, batch, options);
}

runtime::ModelArtifacts quick_artifacts(const sim::MachineConfig& config,
                                        const workload::Batch& batch,
                                        std::uint64_t seed) {
  runtime::ArtifactOptions options;
  options.seed = seed;
  options.cpu_levels = {0, 5, 10};
  options.gpu_levels = {0, 3, 6};
  options.grid_axis = {0.0, 4.0, 8.0, 11.0};
  return runtime::build_artifacts(config, batch, options);
}

bool quick_mode() {
  const char* env = std::getenv("CORUN_QUICK");
  return env != nullptr && env[0] == '1';
}

std::size_t init_jobs() {
  if (const char* env = std::getenv("CORUN_JOBS")) {
    const auto jobs = parse_number<std::size_t>(env);
    if (!jobs) {
      std::fprintf(stderr, "error: CORUN_JOBS: %s\n",
                   jobs.error().message.c_str());
      std::exit(2);
    }
    common::set_default_jobs(jobs.value());
  }
  return common::default_jobs();
}

std::string pct(double fraction) { return Table::pct(fraction); }

}  // namespace corun::bench
