// The one front end of the corun command-line tools. Each tool declares
// once its own flags and the shared ones it takes (a ToolSpec); run_tool
// parses argv, resolves the shared flags, runs the tool's body and closes
// it (plan-cache report, trace file). The planning tools read their
// artifacts through load_artifacts and their request through
// read_plan_request, and plan through serve::PlanService.
#pragma once

#include <memory>
#include <set>
#include <string>

#include "corun/common/expected.hpp"
#include "corun/common/flags.hpp"
#include "corun/core/model/degradation_space.hpp"
#include "corun/core/sched/plan_cache/plan_cache.hpp"
#include "corun/core/serve/protocol.hpp"
#include "corun/profile/profile_db.hpp"
#include "corun/sim/backend.hpp"
#include "corun/workload/batch.hpp"

namespace corun::tools {

/// The flags several tools share. Each resolves from the flag, else from
/// its environment variable (read trimmed; blank means unset), else from
/// its default.
enum SharedFlag : unsigned {
  /// `--jobs N`: worker threads of every sweep (default 0, one per
  /// hardware thread). Every sweep is deterministic by construction, so N
  /// only changes wall-clock time. No environment variable.
  kJobs = 1u << 0,
  /// `--backend tick|event|analytic|replay:PATH` (CORUN_BACKEND; default
  /// event), installed process-wide with sim::set_default_backend, which
  /// also sets the default stepping core. A replay trace is read here, so
  /// a missing or malformed file is a usage error.
  kBackend = 1u << 1,
  /// `--thermal on|off` (CORUN_THERMAL; default off), installed
  /// process-wide with sim::set_default_thermal.
  kThermal = 1u << 2,
  /// `--trace trace.json` (CORUN_TRACE): arms a fresh trace session.
  kTrace = 1u << 3,
  /// `--plan-cache off|mem|mem:N|dir:PATH` (CORUN_PLAN_CACHE; default
  /// ToolSpec::plan_cache_default). The cache never changes a plan, only
  /// its cost.
  kPlanCache = 1u << 4,
};

/// What a tool declares about its command line.
struct ToolSpec {
  std::string synopsis;                 ///< its own usage, shared flags left out
  std::set<std::string> flags;          ///< its own flags that take a value
  std::set<std::string> booleans = {};  ///< its own flags that take none
  unsigned shared = 0;                  ///< the SharedFlag bits it takes
  std::string plan_cache_default = "";  ///< off; the daemon's is "mem"
};

/// A started tool: its flags and its resolved shared settings.
struct Tool {
  Flags flags;
  std::string usage;  ///< the synopsis followed by the shared flags
  std::size_t jobs = 0;
  sim::BackendSpec backend;
  bool thermal = false;
  std::string trace_path;                       ///< "" = tracing off
  std::shared_ptr<sched::PlanCache> plan_cache;  ///< null = caching off

  /// Prints `message` and the usage to stderr; returns 2.
  int usage_error(const std::string& message) const;
};

/// Parses argv against the spec and resolves each shared flag it takes:
/// applies --jobs, --backend and --thermal process-wide and arms --trace.
/// Fails with the usage error's message.
[[nodiscard]] Expected<Tool> start_tool(int argc, const char* const* argv,
                                        const ToolSpec& spec);

/// The closing call: prints the plan cache's activity counters to stderr
/// (stdout stays byte-identical to an uncached run) and writes the trace
/// with its metrics summary. Returns 0, or 1 when the trace file cannot be
/// written.
int finish_tool(const Tool& tool);

/// A tool's whole main: start_tool, then `body`, then finish_tool when the
/// body returned 0. A FlagError thrown by the body (a flag value that is
/// malformed or out of range) is a usage error.
int run_tool(int argc, const char* const* argv, const ToolSpec& spec,
             int (*body)(const Tool&));

/// The flag's value, else environment variable `env` trimmed (an unset,
/// empty or blank variable means unset), else `fallback`.
[[nodiscard]] std::string flag_or_env(const Flags& flags,
                                      const std::string& name, const char* env,
                                      const std::string& fallback);

/// The planning inputs named by --batch, --profiles and --grid.
struct Artifacts {
  workload::Batch batch;
  profile::ProfileDB db;
  model::DegradationGrid grid;
};

/// Checks that --batch, --profiles and --grid are given, then reads and
/// parses them; fails with the first missing flag, unreadable file or
/// malformed table.
[[nodiscard]] Expected<Artifacts> load_artifacts(const Flags& flags);

/// --scheduler (default hcs+), checked against the scheduler registry.
/// Throws FlagError on an unknown name.
[[nodiscard]] std::string read_scheduler(const Flags& flags);

/// The planning flags as a request over the whole batch: --cap (> 0;
/// absent = uncapped), --scheduler, --policy gpu|cpu (sim::parse_policy,
/// the reader PlanService checks requests with) and --seed (unsigned).
/// Throws FlagError on a value out of range.
[[nodiscard]] serve::PlanRequest read_plan_request(const Flags& flags);

/// Prints one `error:` line for a well-formed request the tool could not
/// carry out (a plan the planners refuse, an output it cannot write);
/// returns 1.
int run_error(const std::string& message);

/// Reads a whole file; fails with a readable message on IO errors.
[[nodiscard]] Expected<std::string> read_file(const std::string& path);

/// Writes text to a file (truncating); on failure prints one `error:` line
/// and returns false.
bool write_file(const std::string& path, const std::string& text);

}  // namespace corun::tools
