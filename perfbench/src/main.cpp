// Benchmark program: runs one workload over the corun libraries and prints
// a human-readable report followed, as the last line of stdout, by one
// JSON object: {"correct", "attempted", "failed", "metrics"}. An untraced
// run (--trace 0) reports the end-to-end metrics, a traced run (--trace 1)
// the per-layer ones. Exit status is 0 only when every output check
// passed.
//
//   perfbench --workload offline_pipeline|plan_serving|fleet_dynamic
//             --seed N --seconds S --trace 0|1 [--trace-out trace.json]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "corun/common/task_pool.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every run reports every metric of its kind, in this order; a metric a
// workload does not exercise reads 0. Keep in sync with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"plan_makespan_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"profile.batch_ms", "ms"},
    {"profile.runs", "count"},
    {"profile.share", "ratio"},
    {"model.characterize_ms", "ms"},
    {"model.cells", "count"},
    {"model.predictor_build_ms", "ms"},
    {"model.share", "ratio"},
    {"backend.analytic_hits", "count"},
    {"sim.ticks", "count"},
    {"sim.horizons", "count"},
    {"sim.replayed_ticks", "count"},
    {"sim.ticks_per_horizon", "ratio"},
    {"sim.cap_violation_ticks", "count"},
    {"sched.hcs_plan_ms", "ms"},
    {"sched.bnb_plan_ms", "ms"},
    {"sched.bnb_nodes", "count"},
    {"sched.bnb_prune_ratio", "ratio"},
    {"sched.bnb_leaves", "count"},
    {"sched.share", "ratio"},
    {"plan_cache.hits", "count"},
    {"plan_cache.hit_ratio", "ratio"},
    {"plan_cache.warm_ratio", "ratio"},
    {"plan_cache.stores", "count"},
    {"plan_cache.evictions", "count"},
    {"plan_cache.signature_us", "us"},
    {"plan_cache.full_signature_us", "us"},
    {"runtime.execute_ms", "ms"},
    {"runtime.sim_s_per_host_s", "ratio"},
    {"runtime.dynamic_ms", "ms"},
    {"runtime.replans", "count"},
    {"runtime.repair_fallback_ratio", "ratio"},
    {"runtime.share", "ratio"},
    {"serve.hit_ms", "ms"},
    {"serve.cold_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.chunk_size", "count"},
    {"serve.wire_us", "us"},
    {"serve.share", "ratio"},
    {"fleet.execute_ms", "ms"},
    {"fleet.redivisions", "count"},
    {"fleet.replans", "count"},
    {"fleet.share", "ratio"},
    {"task_pool.busy_frac", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.self_coverage", "ratio"},
    {"trace_events", "count"},
    {"gen.lag_ms", "ms"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "offline_pipeline|plan_serving|fleet_dynamic --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  return 2;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

template <std::size_t N>
std::string metrics_json(const Result& r, const MetricSpec (&specs)[N]) {
  std::map<std::string, double> values;
  for (const Metric& m : r.metrics) values[m.name] = m.value;
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(specs[i].name);
    if (i > 0) out += ", ";
    out += "\"" + std::string(specs[i].name) + "\": {\"value\": " +
           json_number(it == values.end() ? 0.0 : it->second) +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  // The shared pool spans every hardware thread; this thread is one of its
  // workers.
  corun::common::set_default_jobs(0);

  Result result;
  try {
    if (options.workload == "offline_pipeline") {
      result = perfbench::run_offline_pipeline(options);
    } else if (options.workload == "plan_serving") {
      result = perfbench::run_plan_serving(options);
    } else if (options.workload == "fleet_dynamic") {
      result = perfbench::run_fleet_dynamic(options);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("== %s seed=%llu seconds=%g trace=%d threads=%zu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0,
              corun::common::TaskPool::shared().jobs());
  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  for (const Metric& m : result.metrics) {
    std::printf("  %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  const bool correct = !result.any_failure;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(
                  correct ? result.failed
                          : std::max<std::uint64_t>(result.failed, 1)),
              options.trace ? metrics_json(result, kPerLayer).c_str()
                            : metrics_json(result, kEndToEnd).c_str());
  return correct ? 0 : 1;
}
