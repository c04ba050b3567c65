#include "tool_io.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "corun/common/check.hpp"
#include "corun/common/task_pool.hpp"
#include "corun/common/trace/trace.hpp"

namespace corun::tools {

namespace {

/// Environment fallback for the shared flags: returns the variable's value
/// with surrounding whitespace stripped, or "" when it is unset, empty, or
/// whitespace-only. An empty/blank exported variable (`CORUN_BACKEND=`,
/// a stray `CORUN_TRACE=" "`) means "unset", not "the empty spec" — passing
/// it through verbatim used to surface as a usage error or a bogus path.
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
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

int usage_error(const std::string& message, const std::string& usage) {
  std::fprintf(stderr, "error: %s\n\nusage: %s\n", message.c_str(),
               usage.c_str());
  return 2;
}

std::size_t configure_jobs(const Flags& flags) {
  const std::int64_t jobs = flags.get_int("jobs", 0);
  CORUN_CHECK_MSG(jobs >= 0, "--jobs must be >= 0");
  common::set_default_jobs(static_cast<std::size_t>(jobs));
  return common::default_jobs();
}

Expected<sim::BackendSpec> configure_backend(const Flags& flags) {
  std::string name = flags.get("backend", "");
  if (name.empty()) name = trimmed_env("CORUN_BACKEND");
  if (name.empty()) return sim::default_backend_spec();
  auto spec = sim::parse_backend_spec(name);
  if (!spec.has_value()) return spec.error();
  if (spec.value().kind == sim::BackendKind::kReplay) {
    // Surface a bad trace file as a usage error up front instead of a
    // contract violation inside make_machine_model.
    const auto trace = sim::load_demand_trace(spec.value().replay_path);
    if (!trace.has_value()) return trace.error();
  }
  sim::set_default_backend(spec.value());
  return spec;
}

Expected<bool> configure_thermal(const Flags& flags) {
  std::string spec = flags.get("thermal", "");
  if (spec.empty()) spec = trimmed_env("CORUN_THERMAL");
  if (spec.empty()) return sim::default_thermal();
  auto enabled = sim::parse_thermal(spec);
  if (!enabled.has_value()) return enabled.error();
  sim::set_default_thermal(enabled.value());
  return enabled;
}

std::string configure_trace(const Flags& flags) {
  std::string path = flags.get("trace", "");
  if (path.empty()) path = trimmed_env("CORUN_TRACE");
  if (path.empty()) return "";
  trace::reset();
  trace::set_enabled(true);
  return path;
}

Expected<std::shared_ptr<sched::PlanCache>> configure_plan_cache(
    const Flags& flags, const std::string& default_spec) {
  std::string spec = flags.get("plan-cache", "");
  if (spec.empty()) spec = trimmed_env("CORUN_PLAN_CACHE");
  if (spec.empty()) spec = default_spec;
  return sched::PlanCache::from_spec(spec);
}

void report_plan_cache(const sched::PlanCache* cache) {
  if (cache == nullptr) return;
  const sched::PlanCacheStats s = cache->stats();
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

bool finish_trace(const std::string& path) {
  if (path.empty()) return true;
  trace::set_enabled(false);
  const bool ok = trace::write_json(path);
  if (!ok) {
    std::fprintf(stderr, "error: cannot write trace to '%s'\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "trace: %zu events -> %s\n%s", trace::event_count(),
               path.c_str(), trace::metrics_summary().c_str());
  return true;
}

}  // namespace corun::tools
