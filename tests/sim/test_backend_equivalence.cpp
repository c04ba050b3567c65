// Cross-backend honesty suite (the tick/event equivalence contract,
// extended to the machine backends of backend.hpp):
//
//  - analytic vs event: the closed-form backend must match the event engine
//    to 1e-9 on the full randomized scenario corpus — same control
//    decisions, same samples, same telemetry; only the job-progress
//    accumulators may carry closed-form rounding.
//  - record-then-replay: replaying a demand trace recorded by
//    RecordingMachine (round-tripped through its CSV serialization) must
//    reproduce the recording run *bit-identically*.
//  - dynamic events: a mid-run power-cap change (plus a cancellation) must
//    preserve both properties for every backend.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "corun/common/check.hpp"
#include "corun/sim/backend.hpp"
#include "corun/sim/scenario_corpus.hpp"
#include "expect_equivalent.hpp"

namespace corun::sim {
namespace {

class RandomBackendEquivalence : public ::testing::TestWithParam<int> {};

/// Analytic backend vs the event engine on the shared scenario corpus.
TEST_P(RandomBackendEquivalence, AnalyticMatchesEvent) {
  const Scenario s = random_scenario(static_cast<std::uint64_t>(GetParam()));
  const Engine event = execute_scenario(s, EngineMode::kEvent);
  const Engine analytic = execute_scenario(s, EngineMode::kAnalytic);
  expect_equivalent(event, analytic);
}

/// Record a run, round-trip the trace through its CSV serialization, replay
/// it: the replayed trajectory must be bit-identical to the recording.
TEST_P(RandomBackendEquivalence, RecordThenReplayIsByteIdentical) {
  const Scenario s = random_scenario(static_cast<std::uint64_t>(GetParam()));
  RecordingMachine recorder(ivy_bridge(), s.options);
  run_scenario(s, recorder);

  std::ostringstream csv;
  demand_trace_to_csv(recorder.trace(), csv);
  const auto restored = demand_trace_from_csv(csv.str());
  ASSERT_TRUE(restored.has_value()) << restored.error().message;

  ReplayMachine replayer(ivy_bridge(), s.options, restored.value());
  run_scenario(s, replayer);
  EXPECT_EQ(replayer.remaining_launches(), 0u);
  expect_bit_identical(recorder, replayer);
}

// 60 seeded scenarios spanning caps on/off, windowed enforcement, meter
// noise on/off, oversubscribed CPUs, and staged launches.
INSTANTIATE_TEST_SUITE_P(SeededScenarios, RandomBackendEquivalence,
                         ::testing::Range(0, 60));

/// Mid-run dynamics — a cap drop landing mid-horizon and a cancellation —
/// through every backend: analytic and tick stay within tolerance of the
/// event engine; record-then-replay stays bit-identical.
class DynamicBackendEquivalence : public ::testing::TestWithParam<int> {};

void run_dynamic_script(const Scenario& s, Engine& machine) {
  machine.set_ceilings(s.cpu_ceiling, s.gpu_ceiling);
  std::vector<JobId> ids;
  for (const LaunchStep& step : s.steps) {
    if (step.advance_before > 0.0) (void)machine.run_for(step.advance_before);
    ids.push_back(machine.launch(step.spec, step.device));
  }
  (void)machine.run_for(1.7);
  machine.set_power_cap(11.5);  // enforcement begins mid-run
  (void)machine.run_for(2.3);
  if (ids.size() > 1 && !machine.stats(ids[0]).finished) {
    machine.cancel(ids[0]);
  }
  machine.set_power_cap(std::nullopt);
  machine.run_until_idle();
}

TEST_P(DynamicBackendEquivalence, CapChangeMidRunEveryBackend) {
  Scenario s = random_scenario(static_cast<std::uint64_t>(GetParam()));
  // Force an enforcing governor so the injected cap actually bites.
  s.options.policy = GovernorPolicy::kGpuBiased;
  s.options.power_cap = std::nullopt;  // applied mid-run by the script

  EngineOptions opts = s.options;
  opts.mode = EngineMode::kEvent;
  Engine event(ivy_bridge(), opts);
  run_dynamic_script(s, event);

  opts.mode = EngineMode::kTick;
  Engine tick(ivy_bridge(), opts);
  run_dynamic_script(s, tick);
  expect_equivalent(event, tick);

  opts.mode = EngineMode::kAnalytic;
  Engine analytic(ivy_bridge(), opts);
  run_dynamic_script(s, analytic);
  expect_equivalent(event, analytic);

  RecordingMachine recorder(ivy_bridge(), s.options);
  run_dynamic_script(s, recorder);
  std::ostringstream csv;
  demand_trace_to_csv(recorder.trace(), csv);
  const auto restored = demand_trace_from_csv(csv.str());
  ASSERT_TRUE(restored.has_value()) << restored.error().message;
  ReplayMachine replayer(ivy_bridge(), s.options, restored.value());
  run_dynamic_script(s, replayer);
  expect_bit_identical(recorder, replayer);
}

INSTANTIATE_TEST_SUITE_P(SeededScenarios, DynamicBackendEquivalence,
                         ::testing::Range(0, 12));

/// The control-free fast path (kNone governor, sampling off — the profiler
/// workload) through the factory: run_standalone must agree across all
/// three engine-core specs, and the factory must honour the spec.
TEST(BackendFactory, StandaloneAgreesAcrossBackends) {
  const MachineConfig config = ivy_bridge();
  Rng rng(99);
  const JobSpec job = random_corpus_job(rng, 0);
  for (const DeviceKind device : {DeviceKind::kCpu, DeviceKind::kGpu}) {
    const StandaloneResult event = run_standalone(
        config, job, device, 12, 7, 42,
        BackendSpec{.kind = BackendKind::kEvent, .replay_path = {}});
    const StandaloneResult analytic = run_standalone(
        config, job, device, 12, 7, 42,
        BackendSpec{.kind = BackendKind::kAnalytic, .replay_path = {}});
    const StandaloneResult tick = run_standalone(
        config, job, device, 12, 7, 42,
        BackendSpec{.kind = BackendKind::kTick, .replay_path = {}});
    EXPECT_NEAR(event.time, analytic.time, kEquivTol);
    EXPECT_NEAR(event.energy, analytic.energy, kEquivTol);
    EXPECT_NEAR(event.avg_bandwidth, analytic.avg_bandwidth, kEquivTol);
    EXPECT_NEAR(event.avg_power, analytic.avg_power, kEquivTol);
    EXPECT_NEAR(event.time, tick.time, kEquivTol);
    EXPECT_NEAR(event.energy, tick.energy, kEquivTol);
  }
}

TEST(BackendFactory, ParseRoundTripsAndRejectsJunk) {
  for (const char* text : {"tick", "event", "analytic", "replay:trace.csv"}) {
    const auto spec = parse_backend_spec(text);
    ASSERT_TRUE(spec.has_value()) << text;
    EXPECT_EQ(spec.value().name(), text);
  }
  const auto tick = parse_backend_spec("tick");
  ASSERT_TRUE(tick.has_value());
  EXPECT_EQ(tick.value().kind, BackendKind::kTick);

  const auto event = parse_backend_spec("event");
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event.value().kind, BackendKind::kEvent);
  EXPECT_EQ(event.value().name(), "event");

  const auto analytic = parse_backend_spec("analytic");
  ASSERT_TRUE(analytic.has_value());
  EXPECT_EQ(analytic.value().kind, BackendKind::kAnalytic);

  const auto replay = parse_backend_spec("replay:/tmp/trace.csv");
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay.value().kind, BackendKind::kReplay);
  EXPECT_EQ(replay.value().replay_path, "/tmp/trace.csv");
  EXPECT_EQ(replay.value().name(), "replay:/tmp/trace.csv");

  EXPECT_FALSE(parse_backend_spec("replay:").has_value());
  EXPECT_FALSE(parse_backend_spec("warp").has_value());
}

TEST(BackendFactory, AnalyticSpecForcesAnalyticMode) {
  EngineOptions options;
  options.mode = EngineMode::kEvent;
  const auto machine = make_machine_model(
      ivy_bridge(), options,
      BackendSpec{.kind = BackendKind::kAnalytic, .replay_path = {}});
  EXPECT_EQ(machine->options().mode, EngineMode::kAnalytic);
  // And the inverse: the event spec never runs the analytic core.
  options.mode = EngineMode::kAnalytic;
  const auto event = make_machine_model(
      ivy_bridge(), options,
      BackendSpec{.kind = BackendKind::kEvent, .replay_path = {}});
  EXPECT_EQ(event->options().mode, EngineMode::kEvent);
}

/// make_machine_model is the one place a spec picks the stepping core: the
/// engine-core kinds override whatever mode the caller passed, a replay
/// machine keeps the caller's, and a recording runs on the spec's core.
TEST(BackendFactory, SpecSetsTheSteppingCore) {
  Rng rng(5);
  const JobSpec job = random_corpus_job(rng, 0);
  EngineOptions recorded_options;
  recorded_options.record_samples = false;
  RecordingMachine recorder(ivy_bridge(), recorded_options);
  recorder.launch(job, DeviceKind::kCpu);
  recorder.run_until_idle();
  const std::string path = ::testing::TempDir() + "spec_sets_core_" +
                           std::to_string(::getpid()) + ".csv";
  ASSERT_TRUE(save_demand_trace(recorder.trace(), path).has_value());

  const std::pair<BackendKind, EngineMode> cores[] = {
      {BackendKind::kTick, EngineMode::kTick},
      {BackendKind::kEvent, EngineMode::kEvent},
      {BackendKind::kAnalytic, EngineMode::kAnalytic}};
  for (const EngineMode caller :
       {EngineMode::kTick, EngineMode::kEvent, EngineMode::kAnalytic}) {
    EngineOptions options;
    options.mode = caller;
    for (const auto& [kind, core] : cores) {
      const BackendSpec spec{.kind = kind, .replay_path = {}};
      EXPECT_EQ(make_machine_model(ivy_bridge(), options, spec)->options().mode,
                core)
          << spec.name() << " from " << engine_mode_name(caller);
      const auto rec = make_machine_model(ivy_bridge(), options, spec,
                                          /*record=*/true);
      EXPECT_NE(dynamic_cast<RecordingMachine*>(rec.get()), nullptr);
      EXPECT_EQ(rec->options().mode, core) << "recording " << spec.name();
    }
    const BackendSpec replay{.kind = BackendKind::kReplay, .replay_path = path};
    const auto machine = make_machine_model(ivy_bridge(), options, replay);
    EXPECT_NE(dynamic_cast<ReplayMachine*>(machine.get()), nullptr);
    EXPECT_EQ(machine->options().mode, caller);
    // Recording a replay would capture the replayed trace, not a new run.
    EXPECT_THROW((void)make_machine_model(ivy_bridge(), options, replay,
                                          /*record=*/true),
                 ContractViolation);
  }
  std::remove(path.c_str());
}

/// The demand-trace CSV grouping validator must reject malformed traces.
TEST(DemandTrace, RejectsNonContiguousPhases) {
  const char* bad =
      "job,device,launch_time,phase_idx,dur_ref,compute_frac,mem_bw,"
      "llc_footprint_mb,llc_sensitivity\n"
      "a,cpu,0,1,1.0,0.5,2.0,0,0\n";
  EXPECT_FALSE(demand_trace_from_csv(bad).has_value());
  const std::string header =
      "job,device,launch_time,phase_idx,dur_ref,compute_frac,mem_bw,"
      "llc_footprint_mb,llc_sensitivity\n";
  ASSERT_TRUE(
      demand_trace_from_csv(header + "a,cpu,0,0,1.0,0.5,2.0,0,0\n").has_value());
  for (const char* row : {
           "a,npu,0,0,1.0,0.5,2.0,0,0",
           "a,cpu,nan,0,1.0,0.5,2.0,0,0",
           "a,cpu,0,-1,1.0,0.5,2.0,0,0",  // unsigned phase index
           "a,cpu,0,0,1.0s,0.5,2.0,0,0",
           "a,cpu,0,0,1.0,0.5,inf,0,0",
       }) {
    const auto trace = demand_trace_from_csv(header + row + "\n");
    ASSERT_FALSE(trace.has_value()) << row;
    EXPECT_EQ(trace.error().category, ErrorCategory::kParse) << row;
  }
}

TEST(DemandTrace, ReplayRunsOutOfLaunches) {
  Rng rng(3);
  const JobSpec job = random_corpus_job(rng, 0);
  EngineOptions options;
  options.record_samples = false;
  RecordingMachine recorder(ivy_bridge(), options);
  recorder.launch(job, DeviceKind::kCpu);
  recorder.run_until_idle();

  ReplayMachine replayer(ivy_bridge(), options, recorder.trace());
  replayer.launch(job, DeviceKind::kCpu);
  EXPECT_EQ(replayer.remaining_launches(), 0u);
  // A second launch of the same job has no recorded demands left.
  EXPECT_THROW(replayer.launch(job, DeviceKind::kCpu), ContractViolation);
}

}  // namespace
}  // namespace corun::sim
