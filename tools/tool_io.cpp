#include "tool_io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "corun/common/task_pool.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/core/sched/registry.hpp"
#include "corun/sim/demand_trace.hpp"
#include "corun/sim/engine.hpp"
#include "corun/sim/governor.hpp"

namespace corun::tools {

namespace {

/// The shared flags' names and usage text, written once for every tool.
struct SharedFlagInfo {
  SharedFlag bit;
  const char* name;
  const char* usage;
};

constexpr SharedFlagInfo kSharedFlags[] = {
    {kJobs, "jobs", "[--jobs N]"},
    {kBackend, "backend", "[--backend tick|event|analytic|replay:PATH]"},
    {kThermal, "thermal", "[--thermal on|off]"},
    {kTrace, "trace", "[--trace trace.json]"},
    {kPlanCache, "plan-cache", "[--plan-cache off|mem|mem:N|dir:PATH]"},
};

std::string usage_of(const ToolSpec& spec) {
  std::string usage = spec.synopsis;
  for (const SharedFlagInfo& shared : kSharedFlags) {
    if ((spec.shared & shared.bit) != 0) usage += std::string(" ") + shared.usage;
  }
  return usage;
}

int print_usage_error(const std::string& message, const std::string& usage) {
  std::fprintf(stderr, "error: %s\n\nusage: %s\n", message.c_str(),
               usage.c_str());
  return 2;
}

/// An environment variable with surrounding whitespace stripped, or ""
/// when it is unset, empty, or whitespace-only. An empty/blank exported
/// variable (`CORUN_BACKEND=`, a stray `CORUN_TRACE=" "`) means "unset",
/// not "the empty spec" — passing it through verbatim used to surface as a
/// usage error or a bogus path.
std::string trimmed_env(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return "";
  std::string text(value);
  const auto first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const auto last = text.find_last_not_of(" \t\r\n");
  return text.substr(first, last - first + 1);
}

}  // namespace

int Tool::usage_error(const std::string& message) const {
  return print_usage_error(message, usage);
}

std::string flag_or_env(const Flags& flags, const std::string& name,
                        const char* env, const std::string& fallback) {
  std::string value = flags.get(name, "");
  if (value.empty()) value = trimmed_env(env);
  return value.empty() ? fallback : value;
}

Expected<Tool> start_tool(int argc, const char* const* argv,
                          const ToolSpec& spec) {
  const auto takes = [&](SharedFlag bit) { return (spec.shared & bit) != 0; };
  std::set<std::string> known = spec.flags;
  for (const SharedFlagInfo& shared : kSharedFlags) {
    if (takes(shared.bit)) known.insert(shared.name);
  }
  auto flags = Flags::parse(argc, argv, known, spec.booleans);
  if (!flags.has_value()) return flags.error();

  Tool tool;
  tool.flags = std::move(flags).value();
  tool.usage = usage_of(spec);
  tool.backend = sim::default_backend_spec();
  tool.thermal = sim::default_thermal();
  const Flags& f = tool.flags;
  if (takes(kJobs)) {
    try {
      common::set_default_jobs(f.number<std::size_t>("jobs", 0));
    } catch (const FlagError& e) {
      return fail(e.what(), ErrorCategory::kInvalidArgument);
    }
    tool.jobs = common::default_jobs();
  }
  if (takes(kBackend)) {
    const std::string name = flag_or_env(f, "backend", "CORUN_BACKEND", "");
    if (!name.empty()) {
      const auto spec_read = sim::parse_backend_spec(name);
      if (!spec_read.has_value()) return spec_read.error();
      if (spec_read.value().kind == sim::BackendKind::kReplay) {
        const auto trace = sim::load_demand_trace(spec_read.value().replay_path);
        if (!trace.has_value()) return trace.error();
      }
      tool.backend = spec_read.value();
      sim::set_default_backend(tool.backend);
    }
  }
  if (takes(kThermal)) {
    const std::string text = flag_or_env(f, "thermal", "CORUN_THERMAL", "");
    if (!text.empty()) {
      const auto enabled = sim::parse_thermal(text);
      if (!enabled.has_value()) return enabled.error();
      tool.thermal = enabled.value();
      sim::set_default_thermal(tool.thermal);
    }
  }
  if (takes(kPlanCache)) {
    auto cache = sched::PlanCache::from_spec(flag_or_env(
        f, "plan-cache", "CORUN_PLAN_CACHE", spec.plan_cache_default));
    if (!cache.has_value()) return cache.error();
    tool.plan_cache = std::move(cache).value();
  }
  if (takes(kTrace)) {
    tool.trace_path = flag_or_env(f, "trace", "CORUN_TRACE", "");
    if (!tool.trace_path.empty()) {
      trace::reset();
      trace::set_enabled(true);
    }
  }
  return tool;
}

int finish_tool(const Tool& tool) {
  if (tool.plan_cache != nullptr) {
    const sched::PlanCacheStats s = tool.plan_cache->stats();
    std::fprintf(stderr,
                 "plan-cache: hits=%llu misses=%llu evictions=%llu "
                 "stores=%llu disk_hits=%llu io_failures=%llu\n",
                 static_cast<unsigned long long>(s.hits),
                 static_cast<unsigned long long>(s.misses),
                 static_cast<unsigned long long>(s.evictions),
                 static_cast<unsigned long long>(s.stores),
                 static_cast<unsigned long long>(s.disk_hits),
                 static_cast<unsigned long long>(s.io_failures));
  }
  if (tool.trace_path.empty()) return 0;
  trace::set_enabled(false);
  if (!trace::write_json(tool.trace_path)) {
    return run_error("cannot write trace to '" + tool.trace_path + "'");
  }
  std::fprintf(stderr, "trace: %zu events -> %s\n%s", trace::event_count(),
               tool.trace_path.c_str(), trace::metrics_summary().c_str());
  return 0;
}

int run_tool(int argc, const char* const* argv, const ToolSpec& spec,
             int (*body)(const Tool&)) {
  const auto tool = start_tool(argc, argv, spec);
  if (!tool.has_value()) {
    return print_usage_error(tool.error().message, usage_of(spec));
  }
  int status = 0;
  try {
    status = body(tool.value());
  } catch (const FlagError& e) {
    return tool.value().usage_error(e.what());
  }
  return status != 0 ? status : finish_tool(tool.value());
}

Expected<Artifacts> load_artifacts(const Flags& flags) {
  for (const char* required : {"batch", "profiles", "grid"}) {
    if (!flags.has(required)) {
      return fail(std::string("--") + required + " is required",
                  ErrorCategory::kInvalidArgument);
    }
  }
  const auto read = [&](const char* name, auto parse)
      -> decltype(parse(std::string{})) {
    const auto text = read_file(flags.get(name, ""));
    if (!text.has_value()) return text.error();
    return parse(text.value());
  };
  auto batch = read("batch", workload::batch_from_csv);
  if (!batch.has_value()) return batch.error();
  auto db = read("profiles", profile::ProfileDB::read_csv);
  if (!db.has_value()) return db.error();
  auto grid = read("grid", model::DegradationGrid::read_csv);
  if (!grid.has_value()) return grid.error();
  return Artifacts{std::move(batch).value(), std::move(db).value(),
                   std::move(grid).value()};
}

std::string read_scheduler(const Flags& flags) {
  std::string name = flags.get("scheduler", "hcs+");
  const std::vector<std::string> names = sched::scheduler_names();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    throw FlagError("unknown scheduler '" + name + "'");
  }
  return name;
}

serve::PlanRequest read_plan_request(const Flags& flags) {
  serve::PlanRequest request;
  if (flags.has("cap")) request.cap = flags.positive<double>("cap", 0.0);
  request.scheduler = read_scheduler(flags);
  request.policy = flags.get("policy", "gpu");
  if (const auto policy = sim::parse_policy(request.policy); !policy) {
    throw FlagError("--policy: " + policy.error().message);
  }
  request.seed = flags.number<std::uint64_t>("seed", 42);
  return request;
}

int run_error(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

Expected<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open '" + path + "' for reading", ErrorCategory::kIo);
  std::ostringstream oss;
  oss << in.rdbuf();
  if (in.bad()) return fail("read error on '" + path + "'", ErrorCategory::kIo);
  return oss.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (out) out << text;
  if (out) return true;
  run_error("cannot write '" + path + "'");
  return false;
}

}  // namespace corun::tools
