// corun-profile: run the offline (or sampled online) profiling stage for a
// batch and write the ProfileDB CSV the scheduler tools consume.
//
//   corun-profile --batch batch.csv --out profiles.csv
//                 [--online] [--sample-seconds 3.0] [--seed 42]
//                 [--cpu-levels 0,8] [--gpu-levels 0,5]
#include <cstdio>
#include <sstream>

#include "corun/common/csv.hpp"
#include "corun/profile/online_profiler.hpp"
#include "corun/profile/profiler.hpp"
#include "tool_io.hpp"

namespace {

/// Reads a --cpu-levels/--gpu-levels list such as "0,8"; an item that is
/// not an integer, or not a level of `ladder`, throws FlagError like any
/// malformed numeric flag.
std::vector<corun::sim::FreqLevel> read_levels(
    const corun::Flags& f, const std::string& name,
    const corun::sim::FrequencyLadder& ladder) {
  using namespace corun;
  std::vector<sim::FreqLevel> levels;
  std::stringstream ss(f.get(name, ""));
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto level = parse_number<sim::FreqLevel>(item);
    if (!level) throw FlagError("--" + name + ": " + level.error().message);
    if (level.value() < 0 || level.value() > ladder.max_level()) {
      throw FlagError("--" + name + ": level " + item +
                      " is not on the ladder 0.." +
                      std::to_string(ladder.max_level()));
    }
    levels.push_back(level.value());
  }
  return levels;
}

int run(const corun::tools::Tool& tool) {
  using namespace corun;
  const Flags& f = tool.flags;
  if (!f.has("batch") || !f.has("out")) {
    return tool.usage_error("--batch and --out are required");
  }
  const auto text = tools::read_file(f.get("batch", ""));
  if (!text.has_value()) return tool.usage_error(text.error().message);
  const auto batch = workload::batch_from_csv(text.value());
  if (!batch.has_value()) return tool.usage_error(batch.error().message);

  const sim::MachineConfig config = sim::ivy_bridge();
  // The options both profilers share.
  const auto configure = [&](auto& options) {
    options.seed = f.number<std::uint64_t>("seed", 42);
    options.backend = tool.backend;
    if (f.has("cpu-levels")) {
      options.cpu_levels = read_levels(f, "cpu-levels", config.cpu_ladder);
    }
    if (f.has("gpu-levels")) {
      options.gpu_levels = read_levels(f, "gpu-levels", config.gpu_ladder);
    }
  };
  profile::ProfileDB db;
  if (f.has("online")) {
    profile::OnlineProfilerOptions options;
    configure(options);
    options.sample_seconds = f.positive<double>("sample-seconds", 3.0);
    const profile::OnlineProfiler profiler(config, options);
    db = profiler.profile_batch(batch.value());
    std::printf("online profiling: %zu entries, sampling cost %.1f simulated "
                "seconds\n",
                db.size(), profiler.sampling_cost(batch.value()));
  } else {
    profile::ProfilerOptions options;
    configure(options);
    const profile::Profiler profiler(config, options);
    db = profiler.profile_batch(batch.value());
    std::printf("offline profiling: %zu entries\n", db.size());
  }

  std::ostringstream oss;
  db.write_csv(oss);
  if (!tools::write_file(f.get("out", ""), oss.str())) return 1;
  std::printf("wrote %s\n", f.get("out", "").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace corun::tools;
  return run_tool(
      argc, argv,
      {.synopsis = "corun-profile --batch batch.csv --out profiles.csv "
                   "[--online] [--sample-seconds 3.0] [--seed 42] "
                   "[--cpu-levels 0,8] [--gpu-levels 0,5]",
       .flags = {"batch", "out", "sample-seconds", "seed", "cpu-levels",
                 "gpu-levels"},
       .booleans = {"online"},
       .shared = kJobs | kBackend | kThermal | kTrace},
      run);
}
