// corun-characterize: run the micro-benchmark co-run characterization
// (Sec. V-B) and write the degradation-grid CSV. This is the per-machine
// offline stage; the grid is reusable across batches.
//
//   corun-characterize --out grid.csv [--axis-points 11] [--max-bw 11.0]
//                      [--seed 42]
#include <cstdio>
#include <sstream>

#include "corun/common/flags.hpp"
#include "corun/core/model/degradation_space.hpp"
#include "tool_io.hpp"

namespace {
const char kUsage[] =
    "corun-characterize --out grid.csv [--axis-points 11] [--max-bw 11.0] "
    "[--seed 42] [--jobs N] "
    "[--backend tick|event|analytic|replay:PATH] [--thermal on|off] "
    "[--trace trace.json]";
}

int main(int argc, char** argv) {
  using namespace corun;
  const auto flags =
      Flags::parse(argc, argv, {"out", "axis-points", "max-bw", "seed", "jobs",
                                "backend", "thermal", "trace"});
  if (!flags.has_value()) {
    return tools::usage_error(flags.error().message, kUsage);
  }
  const Flags& f = flags.value();
  if (!f.has("out")) {
    return tools::usage_error("--out is required", kUsage);
  }
  const auto points = static_cast<std::size_t>(f.get_int("axis-points", 11));
  const double max_bw = f.get_double("max-bw", 11.0);
  if (points < 2 || max_bw <= 0.0) {
    return tools::usage_error("need --axis-points >= 2 and --max-bw > 0",
                              kUsage);
  }

  std::vector<GBps> axis(points);
  for (std::size_t i = 0; i < points; ++i) {
    axis[i] = max_bw * static_cast<double>(i) / static_cast<double>(points - 1);
  }

  const std::size_t jobs = tools::configure_jobs(f);
  const auto backend = tools::configure_backend(f);
  if (!backend.has_value()) {
    return tools::usage_error(backend.error().message, kUsage);
  }
  const auto thermal = tools::configure_thermal(f);
  if (!thermal.has_value()) {
    return tools::usage_error(thermal.error().message, kUsage);
  }
  const std::string trace_path = tools::configure_trace(f);

  model::CharacterizationOptions options;
  options.seed = static_cast<std::uint64_t>(f.get_int("seed", 42));
  options.backend = backend.value();
  const model::DegradationSpaceBuilder builder(sim::ivy_bridge(), options);
  std::printf("characterizing %zux%zu grid (%zu co-runs, %zu jobs)...\n",
              points, points, 2 * points * points, jobs);
  const model::DegradationGrid grid = builder.characterize(axis, axis);

  std::ostringstream oss;
  grid.write_csv(oss);
  if (!tools::write_file(f.get("out", ""), oss.str())) {
    std::fprintf(stderr, "error: cannot write '%s'\n", f.get("out", "").c_str());
    return 1;
  }
  std::printf("max CPU degradation %.1f%%, max GPU degradation %.1f%%\n",
              grid.max_cpu_degradation() * 100.0,
              grid.max_gpu_degradation() * 100.0);
  std::printf("wrote %s\n", f.get("out", "").c_str());
  if (!tools::finish_trace(trace_path)) return 1;
  return 0;
}
