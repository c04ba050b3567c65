// corun-characterize: run the micro-benchmark co-run characterization
// (Sec. V-B) and write the degradation-grid CSV. This is the per-machine
// offline stage; the grid is reusable across batches.
//
//   corun-characterize --out grid.csv [--axis-points 11] [--max-bw 11.0]
//                      [--seed 42]
#include <cstdio>
#include <sstream>

#include "corun/core/model/degradation_space.hpp"
#include "tool_io.hpp"

namespace {

int run(const corun::tools::Tool& tool) {
  using namespace corun;
  const Flags& f = tool.flags;
  if (!f.has("out")) return tool.usage_error("--out is required");
  const auto points = f.number<std::size_t>("axis-points", 11);
  if (points < 2) return tool.usage_error("--axis-points must be >= 2");
  const double max_bw = f.positive<double>("max-bw", 11.0);

  std::vector<GBps> axis(points);
  for (std::size_t i = 0; i < points; ++i) {
    axis[i] = max_bw * static_cast<double>(i) / static_cast<double>(points - 1);
  }

  model::CharacterizationOptions options;
  options.seed = f.number<std::uint64_t>("seed", 42);
  options.backend = tool.backend;
  const model::DegradationSpaceBuilder builder(sim::ivy_bridge(), options);
  std::printf("characterizing %zux%zu grid (%zu co-runs, %zu jobs)...\n",
              points, points, 2 * points * points, tool.jobs);
  const model::DegradationGrid grid = builder.characterize(axis, axis);

  std::ostringstream oss;
  grid.write_csv(oss);
  if (!tools::write_file(f.get("out", ""), oss.str())) return 1;
  std::printf("max CPU degradation %.1f%%, max GPU degradation %.1f%%\n",
              grid.max_cpu_degradation() * 100.0,
              grid.max_gpu_degradation() * 100.0);
  std::printf("wrote %s\n", f.get("out", "").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace corun::tools;
  return run_tool(argc, argv,
                  {.synopsis = "corun-characterize --out grid.csv "
                               "[--axis-points 11] [--max-bw 11.0] [--seed 42]",
                   .flags = {"out", "axis-points", "max-bw", "seed"},
                   .shared = kJobs | kBackend | kThermal | kTrace},
                  run);
}
