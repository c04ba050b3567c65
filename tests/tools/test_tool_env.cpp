// Environment-variable fallbacks of the tools' shared flags, through the
// one front door (start_tool): an exported but empty (or whitespace-only)
// CORUN_BACKEND / CORUN_THERMAL / CORUN_TRACE / CORUN_PLAN_CACHE /
// CORUN_FLEET_STRATEGY must mean "unset", not "the empty spec" — a stray
// `export CORUN_BACKEND=` in a CI script used to turn every tool run into
// a usage error. One regression test per variable. Plus the one machine
// selector: CORUN_BACKEND / --backend also pick the stepping core that
// directly constructed Engines default to.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "corun/common/flags.hpp"
#include "corun/common/trace/trace.hpp"
#include "corun/sim/backend.hpp"
#include "corun/sim/engine.hpp"
#include "tool_io.hpp"

namespace corun::tools {
namespace {

/// Starts a tool that takes every shared flag, from a command line after
/// the program name; with no flags the environment decides.
Expected<Tool> start(std::vector<const char*> args = {},
                     const std::string& plan_cache_default = "") {
  args.insert(args.begin(), "test");
  return start_tool(static_cast<int>(args.size()), args.data(),
                    {.synopsis = "test",
                     .flags = {"strategy"},
                     .shared = kJobs | kBackend | kThermal | kTrace | kPlanCache,
                     .plan_cache_default = plan_cache_default});
}

/// Scoped setenv that restores the previous value (or unsets), so a failing
/// assertion cannot leak state into the next test and a suite run under
/// CORUN_BACKEND=... keeps its setting.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// The stepping core CORUN_BACKEND implies at startup: tick, event and
/// analytic name their cores; unset, replay and unparsable values give
/// event.
sim::EngineMode core_named_by_env() {
  const char* env = std::getenv("CORUN_BACKEND");
  const auto spec =
      sim::parse_backend_spec(env != nullptr ? env : std::string("event"));
  if (!spec.has_value()) return sim::EngineMode::kEvent;
  switch (spec.value().kind) {
    case sim::BackendKind::kTick: return sim::EngineMode::kTick;
    case sim::BackendKind::kAnalytic: return sim::EngineMode::kAnalytic;
    default: return sim::EngineMode::kEvent;
  }
}

// CI re-runs the whole suite under CORUN_BACKEND=tick (and =analytic) so
// the Engines that tests and benches construct directly run on that core;
// this fails loudly if the env stops reaching the default. First in the
// file so it sees the startup default even when the whole binary runs in
// one process.
TEST(ToolEnv, StartupEngineModeFollowsCorunBackend) {
  EXPECT_STREQ(sim::engine_mode_name(sim::default_engine_mode()),
               sim::engine_mode_name(core_named_by_env()))
      << "CORUN_BACKEND=" << (std::getenv("CORUN_BACKEND") != nullptr
                                  ? std::getenv("CORUN_BACKEND")
                                  : "(unset)");
  EXPECT_EQ(sim::EngineOptions{}.mode, sim::default_engine_mode());
}

TEST(ToolEnv, EmptyOrBlankCorunBackendMeansUnset) {
  const sim::BackendSpec original = sim::default_backend_spec();
  for (const char* value : {"", " ", " \t\n"}) {
    EnvGuard guard("CORUN_BACKEND", value);
    const auto tool = start();
    ASSERT_TRUE(tool.has_value()) << "blank CORUN_BACKEND='" << value
                                  << "' must fall back to the default";
    EXPECT_EQ(tool.value().backend.kind, original.kind);
  }
  // A real value still takes effect — and survives whitespace padding.
  {
    EnvGuard guard("CORUN_BACKEND", "  analytic  ");
    const auto tool = start();
    ASSERT_TRUE(tool.has_value());
    EXPECT_EQ(tool.value().backend.kind, sim::BackendKind::kAnalytic);
  }
  sim::set_default_backend(original);
}

TEST(ToolEnv, BackendSelectsTheDefaultSteppingCore) {
  const sim::BackendSpec original = sim::default_backend_spec();
  {
    EnvGuard guard("CORUN_BACKEND", "tick");
    ASSERT_TRUE(start().has_value());
    EXPECT_EQ(sim::default_engine_mode(), sim::EngineMode::kTick);
    EXPECT_EQ(sim::EngineOptions{}.mode, sim::EngineMode::kTick);
  }
  ASSERT_TRUE(start({"--backend", "event"}).has_value());
  EXPECT_EQ(sim::default_engine_mode(), sim::EngineMode::kEvent);
  EXPECT_EQ(sim::EngineOptions{}.mode, sim::EngineMode::kEvent);

  const auto tick = start({"--backend", "tick"});
  ASSERT_TRUE(tick.has_value());
  EXPECT_EQ(tick.value().backend.kind, sim::BackendKind::kTick);
  EXPECT_EQ(sim::default_backend_spec().name(), "tick");
  EXPECT_EQ(sim::EngineOptions{}.mode, sim::EngineMode::kTick);

  (void)start({"--backend", "analytic"});
  EXPECT_EQ(sim::EngineOptions{}.mode, sim::EngineMode::kAnalytic);
  (void)start({"--backend", "event"});
  EXPECT_EQ(sim::EngineOptions{}.mode, sim::EngineMode::kEvent);

  EXPECT_FALSE(start({"--backend", "warp"}).has_value());
  EXPECT_EQ(sim::default_engine_mode(), sim::EngineMode::kEvent);
  sim::set_default_backend(original);
}

TEST(ToolEnv, EmptyOrBlankCorunThermalMeansUnset) {
  const bool original = sim::default_thermal();
  for (const char* value : {"", " ", "\t"}) {
    EnvGuard guard("CORUN_THERMAL", value);
    const auto tool = start();
    ASSERT_TRUE(tool.has_value())
        << "blank CORUN_THERMAL='" << value << "' must not be parsed";
    EXPECT_EQ(tool.value().thermal, original);
  }
  {
    EnvGuard guard("CORUN_THERMAL", " on ");
    const auto tool = start();
    ASSERT_TRUE(tool.has_value());
    EXPECT_TRUE(tool.value().thermal);
    EXPECT_TRUE(sim::default_thermal());
    // The flag beats the environment.
    const auto off = start({"--thermal", "off"});
    ASSERT_TRUE(off.has_value());
    EXPECT_FALSE(off.value().thermal);
  }
  sim::set_default_thermal(original);
}

TEST(ToolEnv, EmptyOrBlankCorunTraceMeansUnset) {
  for (const char* value : {"", "   ", "\t"}) {
    EnvGuard guard("CORUN_TRACE", value);
    const auto tool = start();
    ASSERT_TRUE(tool.has_value());
    EXPECT_EQ(tool.value().trace_path, "")
        << "blank CORUN_TRACE='" << value << "' must not arm tracing";
  }
  {
    EnvGuard guard("CORUN_TRACE", " padded.json ");
    const auto tool = start();
    ASSERT_TRUE(tool.has_value());
    EXPECT_EQ(tool.value().trace_path, "padded.json");
    trace::set_enabled(false);
    trace::reset();
  }
}

TEST(ToolEnv, EmptyOrBlankCorunPlanCacheMeansUnset) {
  for (const char* value : {"", " ", "\n"}) {
    EnvGuard guard("CORUN_PLAN_CACHE", value);
    const auto tool = start();
    ASSERT_TRUE(tool.has_value())
        << "blank CORUN_PLAN_CACHE='" << value << "' must not be parsed";
    EXPECT_EQ(tool.value().plan_cache, nullptr);  // caching stays off

    // ...and a tool's own default still applies when blank.
    const auto defaulted = start({}, "mem:4");
    ASSERT_TRUE(defaulted.has_value());
    ASSERT_NE(defaulted.value().plan_cache, nullptr);
    EXPECT_EQ(defaulted.value().plan_cache->config().capacity, 4u);
  }
  {
    EnvGuard guard("CORUN_PLAN_CACHE", " mem:7 ");
    const auto tool = start();
    ASSERT_TRUE(tool.has_value());
    ASSERT_NE(tool.value().plan_cache, nullptr);
    EXPECT_EQ(tool.value().plan_cache->config().capacity, 7u);
    // An explicit env spec beats the tool's default.
    const auto still = start({}, "mem:4");
    ASSERT_TRUE(still.has_value());
    EXPECT_EQ(still.value().plan_cache->config().capacity, 7u);
  }
}

TEST(ToolEnv, EmptyOrBlankCorunFleetStrategyMeansUnset) {
  for (const char* value : {"", " ", "\t\n"}) {
    EnvGuard guard("CORUN_FLEET_STRATEGY", value);
    const auto tool = start();
    ASSERT_TRUE(tool.has_value());
    EXPECT_EQ(flag_or_env(tool.value().flags, "strategy",
                          "CORUN_FLEET_STRATEGY", "uniform"),
              "uniform");
  }
  EnvGuard guard("CORUN_FLEET_STRATEGY", " demand ");
  const auto tool = start();
  ASSERT_TRUE(tool.has_value());
  EXPECT_EQ(flag_or_env(tool.value().flags, "strategy",
                        "CORUN_FLEET_STRATEGY", "uniform"),
            "demand");
  const auto flagged = start({"--strategy", "marginal"});
  ASSERT_TRUE(flagged.has_value());
  EXPECT_EQ(flag_or_env(flagged.value().flags, "strategy",
                        "CORUN_FLEET_STRATEGY", "uniform"),
            "marginal");
}

// --jobs is a count: a sign is a usage error naming the flag, and so is a
// shared flag the tool does not take.
TEST(ToolEnv, StartToolRejectsSignedJobsAndFlagsTheToolDoesNotTake) {
  const auto signed_jobs = start({"--jobs", "-1"});
  ASSERT_FALSE(signed_jobs.has_value());
  EXPECT_NE(signed_jobs.error().message.find("--jobs"), std::string::npos);

  const char* argv[] = {"test", "--backend", "tick"};
  const auto untaken = start_tool(3, argv, {.synopsis = "test", .flags = {}});
  ASSERT_FALSE(untaken.has_value());
  EXPECT_NE(untaken.error().message.find("--backend"), std::string::npos);
}

}  // namespace
}  // namespace corun::tools
