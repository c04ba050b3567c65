// Environment-variable fallbacks of the shared tool plumbing: an exported
// but empty (or whitespace-only) CORUN_BACKEND / CORUN_TRACE /
// CORUN_PLAN_CACHE must mean "unset", not "the empty spec" — a stray
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

/// Flags with no backend/trace/plan-cache switches, so the env fallback is
/// what decides.
Flags bare_flags() {
  const char* argv[] = {"test"};
  return Flags::parse(1, const_cast<char**>(argv),
                      {"backend", "trace", "plan-cache"}, {})
      .value();
}

/// Flags from a command line after the program name.
Flags flags_of(std::vector<const char*> args) {
  args.insert(args.begin(), "test");
  return Flags::parse(static_cast<int>(args.size()), args.data(),
                      {"backend", "trace", "plan-cache"}, {})
      .value();
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
    const auto spec = configure_backend(bare_flags());
    ASSERT_TRUE(spec.has_value()) << "blank CORUN_BACKEND='" << value
                                  << "' must fall back to the default";
    EXPECT_EQ(spec.value().kind, original.kind);
  }
  // A real value still takes effect — and survives whitespace padding.
  {
    EnvGuard guard("CORUN_BACKEND", "  analytic  ");
    const auto spec = configure_backend(bare_flags());
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec.value().kind, sim::BackendKind::kAnalytic);
  }
  sim::set_default_backend(original);
}

TEST(ToolEnv, BackendSelectsTheDefaultSteppingCore) {
  const sim::BackendSpec original = sim::default_backend_spec();
  {
    EnvGuard guard("CORUN_BACKEND", "tick");
    ASSERT_TRUE(configure_backend(bare_flags()).has_value());
    EXPECT_EQ(sim::default_engine_mode(), sim::EngineMode::kTick);
    EXPECT_EQ(sim::EngineOptions{}.mode, sim::EngineMode::kTick);
  }
  const auto event = configure_backend(flags_of({"--backend", "event"}));
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(sim::default_engine_mode(), sim::EngineMode::kEvent);
  EXPECT_EQ(sim::EngineOptions{}.mode, sim::EngineMode::kEvent);

  const auto tick = configure_backend(flags_of({"--backend", "tick"}));
  ASSERT_TRUE(tick.has_value());
  EXPECT_EQ(tick.value().kind, sim::BackendKind::kTick);
  EXPECT_EQ(sim::default_backend_spec().name(), "tick");
  EXPECT_EQ(sim::EngineOptions{}.mode, sim::EngineMode::kTick);

  (void)configure_backend(flags_of({"--backend", "analytic"}));
  EXPECT_EQ(sim::EngineOptions{}.mode, sim::EngineMode::kAnalytic);
  (void)configure_backend(flags_of({"--backend", "event"}));
  EXPECT_EQ(sim::EngineOptions{}.mode, sim::EngineMode::kEvent);

  EXPECT_FALSE(configure_backend(flags_of({"--backend", "warp"})).has_value());
  EXPECT_EQ(sim::default_engine_mode(), sim::EngineMode::kEvent);
  sim::set_default_backend(original);
}

TEST(ToolEnv, EmptyOrBlankCorunTraceMeansUnset) {
  for (const char* value : {"", "   ", "\t"}) {
    EnvGuard guard("CORUN_TRACE", value);
    EXPECT_EQ(configure_trace(bare_flags()), "")
        << "blank CORUN_TRACE='" << value << "' must not arm tracing";
  }
  {
    EnvGuard guard("CORUN_TRACE", " padded.json ");
    EXPECT_EQ(configure_trace(bare_flags()), "padded.json");
    trace::set_enabled(false);
    trace::reset();
  }
}

TEST(ToolEnv, EmptyOrBlankCorunPlanCacheMeansUnset) {
  for (const char* value : {"", " ", "\n"}) {
    EnvGuard guard("CORUN_PLAN_CACHE", value);
    const auto cache = configure_plan_cache(bare_flags());
    ASSERT_TRUE(cache.has_value())
        << "blank CORUN_PLAN_CACHE='" << value << "' must not be parsed";
    EXPECT_EQ(cache.value(), nullptr);  // caching stays off

    // ...and a caller-supplied default still applies when blank.
    const auto defaulted = configure_plan_cache(bare_flags(), "mem:4");
    ASSERT_TRUE(defaulted.has_value());
    ASSERT_NE(defaulted.value(), nullptr);
    EXPECT_EQ(defaulted.value()->config().capacity, 4u);
  }
  {
    EnvGuard guard("CORUN_PLAN_CACHE", " mem:7 ");
    const auto cache = configure_plan_cache(bare_flags());
    ASSERT_TRUE(cache.has_value());
    ASSERT_NE(cache.value(), nullptr);
    EXPECT_EQ(cache.value()->config().capacity, 7u);
    // An explicit env spec beats the caller default.
    const auto still = configure_plan_cache(bare_flags(), "mem:4");
    ASSERT_TRUE(still.has_value());
    EXPECT_EQ(still.value()->config().capacity, 7u);
  }
}

}  // namespace
}  // namespace corun::tools
