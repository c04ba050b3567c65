// corun-profile: run the offline (or sampled online) profiling stage for a
// batch and write the ProfileDB CSV the scheduler tools consume.
//
//   corun-profile --batch batch.csv --out profiles.csv
//                 [--online] [--sample-seconds 3.0] [--seed 42]
//                 [--cpu-levels 0,8] [--gpu-levels 0,5]
#include <cstdio>
#include <sstream>

#include "corun/common/flags.hpp"
#include "corun/profile/online_profiler.hpp"
#include "corun/profile/profiler.hpp"
#include "tool_io.hpp"

namespace {

const char kUsage[] =
    "corun-profile --batch batch.csv --out profiles.csv [--online] "
    "[--sample-seconds 3.0] [--seed 42] [--cpu-levels 0,8] [--gpu-levels 0,5] "
    "[--jobs N] [--backend tick|event|analytic|replay:PATH] "
    "[--thermal on|off] [--trace trace.json]";

std::vector<corun::sim::FreqLevel> parse_levels(const std::string& csv) {
  std::vector<corun::sim::FreqLevel> levels;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) levels.push_back(std::stoi(item));
  }
  return levels;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace corun;
  const auto flags = Flags::parse(
      argc, argv,
      {"batch", "out", "sample-seconds", "seed", "cpu-levels", "gpu-levels",
       "jobs", "backend", "thermal", "trace"},
      {"online"});
  if (!flags.has_value()) {
    return tools::usage_error(flags.error().message, kUsage);
  }
  const Flags& f = flags.value();
  if (!f.has("batch") || !f.has("out")) {
    return tools::usage_error("--batch and --out are required", kUsage);
  }

  const auto text = tools::read_file(f.get("batch", ""));
  if (!text.has_value()) {
    return tools::usage_error(text.error().message, kUsage);
  }
  const auto batch = workload::batch_from_csv(text.value());
  if (!batch.has_value()) {
    return tools::usage_error(batch.error().message, kUsage);
  }

  const sim::MachineConfig config = sim::ivy_bridge();
  const auto seed = static_cast<std::uint64_t>(f.get_int("seed", 42));
  (void)tools::configure_jobs(f);
  const auto backend = tools::configure_backend(f);
  if (!backend.has_value()) {
    return tools::usage_error(backend.error().message, kUsage);
  }
  const auto thermal = tools::configure_thermal(f);
  if (!thermal.has_value()) {
    return tools::usage_error(thermal.error().message, kUsage);
  }
  const std::string trace_path = tools::configure_trace(f);

  profile::ProfileDB db;
  if (f.has("online")) {
    profile::OnlineProfilerOptions options;
    options.seed = seed;
    options.backend = backend.value();
    options.sample_seconds = f.get_double("sample-seconds", 3.0);
    if (f.has("cpu-levels")) options.cpu_levels = parse_levels(f.get("cpu-levels", ""));
    if (f.has("gpu-levels")) options.gpu_levels = parse_levels(f.get("gpu-levels", ""));
    const profile::OnlineProfiler profiler(config, options);
    db = profiler.profile_batch(batch.value());
    std::printf("online profiling: %zu entries, sampling cost %.1f simulated "
                "seconds\n",
                db.size(), profiler.sampling_cost(batch.value()));
  } else {
    profile::ProfilerOptions options;
    options.seed = seed;
    options.backend = backend.value();
    if (f.has("cpu-levels")) options.cpu_levels = parse_levels(f.get("cpu-levels", ""));
    if (f.has("gpu-levels")) options.gpu_levels = parse_levels(f.get("gpu-levels", ""));
    const profile::Profiler profiler(config, options);
    db = profiler.profile_batch(batch.value());
    std::printf("offline profiling: %zu entries\n", db.size());
  }

  std::ostringstream oss;
  db.write_csv(oss);
  if (!tools::write_file(f.get("out", ""), oss.str())) {
    std::fprintf(stderr, "error: cannot write '%s'\n", f.get("out", "").c_str());
    return 1;
  }
  std::printf("wrote %s\n", f.get("out", "").c_str());
  if (!tools::finish_trace(trace_path)) return 1;
  return 0;
}
