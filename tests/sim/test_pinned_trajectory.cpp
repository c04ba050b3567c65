// Trajectories pinned to recorded values. The tick/event equivalence suite
// compares two stepping cores of one build, so a change to the meter's
// noise stream that both cores share would pass it; these tests pin a
// capped, noisy co-run (with a mid-run cap move and a meter dropout) and
// two control-free standalone runs to numbers recorded before the meter's
// draw moved in-repo (Rng::polar_draw on the in-repo MT19937-64).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "corun/sim/backend.hpp"
#include "corun/sim/engine.hpp"

namespace corun::sim {
namespace {

JobSpec phased_job(const char* name, std::vector<Phase> cpu,
                   std::vector<Phase> gpu) {
  JobSpec spec;
  spec.name = name;
  spec.cpu = DeviceProfile(std::move(cpu));
  spec.gpu = DeviceProfile(std::move(gpu));
  return spec;
}

JobSpec job_a() {
  return phased_job("a",
                    {{3.0, 0.3, 9.0}, {2.5, 0.8, 3.0}, {4.0, 0.5, 6.0}},
                    {{2.0, 0.4, 10.0}, {3.0, 0.7, 4.0}});
}

JobSpec job_b() {
  return phased_job("b", {{4.0, 0.6, 5.0}, {2.0, 0.2, 11.0}},
                    {{2.0, 0.4, 10.0}, {5.0, 0.7, 4.0}, {2.0, 0.2, 12.0}});
}

JobSpec job_c() {
  return phased_job("c", {{1.5, 0.9, 2.0}, {3.5, 0.4, 8.0}},
                    {{2.5, 0.5, 7.0}, {1.0, 0.1, 13.0}});
}

struct Recorded {
  std::vector<Seconds> finish;  ///< by job id
  Joules energy = 0.0;
  std::size_t over_cap = 0;
  std::vector<int> levels;  ///< per sample: cpu_level, gpu_level
  std::vector<Watts> measured;
};

// A cap-governed co-run at 14 W with 0.25 W meter noise: the cap moves to
// 11 W at 8 s, the meter drops out from 11 s to 13 s, and a third job
// starts on whichever device frees first.
Recorded capped_corun(EngineMode mode) {
  const MachineConfig config = ivy_bridge();
  EngineOptions eo;
  eo.mode = mode;
  eo.seed = 7;
  eo.meter_noise_stddev = 0.25;
  eo.power_cap = 14.0;
  eo.policy = GovernorPolicy::kGpuBiased;
  eo.sample_interval = 0.5;
  eo.record_samples = true;
  eo.thermal = false;
  Engine engine(config, eo);
  engine.set_ceilings(config.cpu_ladder.max_level(),
                      config.gpu_ladder.max_level());
  engine.launch(job_a(), DeviceKind::kCpu);
  engine.launch(job_b(), DeviceKind::kGpu);
  (void)engine.run_for(8.0);
  engine.set_power_cap(11.0);
  (void)engine.run_for(3.0);
  engine.set_meter_dropout(true);
  (void)engine.run_for(2.0);
  engine.set_meter_dropout(false);
  const std::vector<JobEvent> first = engine.run_until_event();
  EXPECT_FALSE(first.empty());
  if (!first.empty()) engine.launch(job_c(), first.front().device);
  engine.run_until_idle();

  Recorded r;
  for (const JobStats& st : engine.all_stats()) {
    r.finish.push_back(st.finish_time);
  }
  r.energy = engine.telemetry().energy();
  r.over_cap = engine.telemetry().cap_stats().over_cap;
  for (const PowerSample& s : engine.telemetry().samples()) {
    r.levels.push_back(s.cpu_level);
    r.levels.push_back(s.gpu_level);
    r.measured.push_back(s.measured);
  }
  return r;
}

// A control-free standalone run (no policy, no samples, no thermal): the
// event core replays it without stopping at governor or sample points.
StandaloneResult standalone(EngineMode mode, DeviceKind device, FreqLevel cpu,
                            FreqLevel gpu) {
  BackendSpec backend;
  backend.kind =
      mode == EngineMode::kTick ? BackendKind::kTick : BackendKind::kEvent;
  return run_standalone(ivy_bridge(), job_b(), device, cpu, gpu, 42, backend);
}

TEST(PinnedTrajectory, CappedNoisyCorunWithCapMoveAndDropout) {
  const std::vector<Seconds> finish = {18.056675005502985, 12.012012715223232,
                                       24.953934068173282};
  const std::vector<int> levels = {
      0, 1, 0, 6, 0, 8, 0, 8, 0, 8, 0, 6, 0, 6, 0, 7, 0, 6, 0, 6, 0, 7, 0,
      6, 0, 6, 0, 6, 0, 6, 0, 6, 0, 5, 0, 2, 0, 2, 0, 3, 0, 3, 0, 3, 0, 3,
      0, 3, 0, 3, 0, 3, 0, 4, 0, 9, 5, 9, 7, 9, 8, 9, 7, 9, 8, 9, 7, 9, 7,
      9, 7, 9, 7, 9, 5, 9, 5, 9, 6, 9, 6, 9, 6, 9, 8, 9, 8, 9, 8, 9, 8, 9,
      8, 9, 9, 9, 8, 9, 8, 9};
  const std::vector<Watts> measured = {
      9.0655662636812178, 11.858247181297997, 13.47302412558178,
      13.876865065461208, 13.275326786564833, 13.367142934732573,
      12.935150184399989, 13.723114928079648, 12.724737392481723,
      12.960707604094758, 14.221771175024271, 13.535200314971473,
      13.470677648034778, 13.747010132006963, 13.341662904388064,
      13.404307368294377, 12.908437918656372, 10.205079225929261,
      9.9909913979843843, 9.8528601314691659, 10.323397262345974,
      10.122715158814815, 10.168091049527218, 10.168091049527218,
      10.168091049527218, 10.168091049527218, 7.5432587182434983,
      7.326553517279911, 9.3183667360890841, 10.263567426836872,
      10.194159379490642, 9.9729509493616693, 10.794096333831936,
      10.133903022132612, 9.9399422783831817, 10.146696694740845,
      10.437691535641523, 9.8983664855255231, 10.075681313109468,
      11.020964622832471, 10.658216744261047, 10.306842797935488,
      9.889464068411133, 10.227391191330875, 10.154588587676239,
      10.1170605190673, 10.223490103996872, 10.892011125381451,
      10.361428889060766, 10.23249725800267};
  for (const EngineMode mode : {EngineMode::kTick, EngineMode::kEvent}) {
    SCOPED_TRACE(engine_mode_name(mode));
    const Recorded r = capped_corun(mode);
    EXPECT_EQ(r.finish, finish);
    EXPECT_EQ(r.energy, 271.39382238046261);
    EXPECT_EQ(r.over_cap, 1u);
    EXPECT_EQ(r.levels, levels);
    ASSERT_EQ(r.measured.size(), measured.size());
    for (std::size_t i = 0; i < measured.size(); ++i) {
      EXPECT_NEAR(r.measured[i], measured[i], 1e-12) << "sample " << i;
    }
  }
}

TEST(PinnedTrajectory, ControlFreeStandaloneRuns) {
  for (const EngineMode mode : {EngineMode::kTick, EngineMode::kEvent}) {
    SCOPED_TRACE(engine_mode_name(mode));
    const StandaloneResult cpu = standalone(mode, DeviceKind::kCpu, 15, 9);
    EXPECT_EQ(cpu.time, 5.9999999999999556);
    EXPECT_EQ(cpu.avg_bandwidth, 4.2666666666667012);
    EXPECT_EQ(cpu.avg_power, 14.488252911813854);
    EXPECT_EQ(cpu.energy, 87.074400000000054);
    const StandaloneResult gpu = standalone(mode, DeviceKind::kGpu, 4, 2);
    EXPECT_EQ(gpu.time, 15.850087412587074);
    EXPECT_EQ(gpu.avg_bandwidth, 2.346990210947232);
    EXPECT_EQ(gpu.avg_power, 8.2036145607270772);
    EXPECT_EQ(gpu.energy, 130.10932693312904);
  }
}

}  // namespace
}  // namespace corun::sim
