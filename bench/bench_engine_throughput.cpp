// Engine throughput: simulated-seconds-per-wall-second for the tick
// reference oracle vs the event-horizon engine, over a representative
// workload mix (standalone profiling runs, uncapped co-runs, cap-governed
// co-runs, and windowed-cap co-runs). Writes BENCH_engine.json so the
// speedup is tracked as an artifact; the equivalence suite
// (tests/sim/test_engine_equivalence.cpp) separately pins both modes to
// identical results.
//
// The uncapped scenarios also write the event core's deterministic work
// (`horizons_work`, `replayed_ticks_work`), which the bench guard compares
// exactly: no meter reading decides anything on those machines, so the
// counts depend on neither timing nor libm.
//
//   ./bench_engine_throughput [out.json]     (default: BENCH_engine.json)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "corun/common/check.hpp"
#include "corun/sim/engine.hpp"
#include "corun/workload/batch.hpp"

namespace {

using namespace corun;

struct Scenario {
  std::string name;
  std::optional<Watts> cap;
  sim::GovernorPolicy policy = sim::GovernorPolicy::kNone;
  Seconds cap_window = 0.0;
  bool corun = false;   ///< launch a GPU partner next to the CPU job
  int repetitions = 1;
  Seconds limit = 0.0;  ///< 0 = drain to idle; else measure a run_for slice
  int mix_reps = 0;     ///< reps the overall mix counts (0 = repetitions)
};

struct Measurement {
  Seconds simulated = 0.0;
  double wall = 0.0;
  Joules energy = 0.0;  ///< cross-mode sanity checksum
  std::uint64_t horizons = 0;
  std::uint64_t replayed_ticks = 0;
};

Measurement run_scenario(const Scenario& s, sim::EngineMode mode) {
  const sim::MachineConfig config = sim::ivy_bridge();
  const workload::Batch batch = workload::make_batch_8(42);
  Measurement m;
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < s.repetitions; ++rep) {
    // Rotate through the batch so the mix covers different phase traces.
    const workload::BatchJob& cpu_job =
        batch.jobs()[static_cast<std::size_t>(rep) % batch.size()];
    const workload::BatchJob& gpu_job =
        batch.jobs()[static_cast<std::size_t>(rep + 3) % batch.size()];
    sim::EngineOptions eo;
    eo.mode = mode;
    eo.seed = 42 + static_cast<std::uint64_t>(rep);
    eo.power_cap = s.cap;
    eo.policy = s.policy;
    eo.cap_window = s.cap_window;
    eo.record_samples = false;
    sim::Engine engine(config, eo);
    engine.set_ceilings(config.cpu_ladder.max_level(),
                        config.gpu_ladder.max_level());
    engine.launch(cpu_job.spec, sim::DeviceKind::kCpu);
    if (s.corun) engine.launch(gpu_job.spec, sim::DeviceKind::kGpu);
    if (s.limit > 0.0) {
      (void)engine.run_for(s.limit);
    } else {
      engine.run_until_idle();
    }
    m.simulated += engine.now();
    m.energy += engine.telemetry().energy();
    m.horizons += engine.counters().horizons;
    m.replayed_ticks += engine.counters().replayed_ticks;
  }
  const auto t1 = std::chrono::steady_clock::now();
  m.wall = std::chrono::duration<double>(t1 - t0).count();
  return m;
}

double rate(const Measurement& m) {
  return m.wall > 0.0 ? m.simulated / m.wall : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Engine throughput",
                "Simulated-seconds-per-wall-second, tick oracle vs "
                "event-horizon engine.");
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_engine.json";

  // The overall rate weighs the scenarios like the pipeline's actual
  // engine-invocation mix: building model artifacts dominates simulated
  // time (hundreds of uncapped standalone profiling runs plus co-run
  // characterization cells per batch), while cap-governed execution is a
  // couple dozen schedule runs at the end. The capped scenarios pay a
  // per-tick meter draw for RNG lockstep with the oracle and measure a
  // fixed 20 s slice per rep — throughput is a rate, so the slice length
  // only sets the measurement window. They run 400 reps, so each event-core
  // measurement lasts 50 ms or more on a 4-vCPU x86-64 VM (a 0.3 ms run is
  // too short to time), but the mix counts 2 of them, their realistic
  // (small) share.
  const std::vector<Scenario> scenarios = {
      {"standalone_uncapped", std::nullopt, sim::GovernorPolicy::kNone, 0.0,
       false, 12},
      {"corun_uncapped", std::nullopt, sim::GovernorPolicy::kNone, 0.0, true,
       12},
      {"corun_capped_15w", 15.0, sim::GovernorPolicy::kGpuBiased, 0.0, true,
       400, 20.0, 2},
      {"corun_capped_windowed", 15.0, sim::GovernorPolicy::kGpuBiased, 1.0,
       true, 400, 20.0, 2},
  };

  Table table({"scenario", "tick sim-s/s", "event sim-s/s", "speedup"});
  Measurement tick_total;
  Measurement event_total;
  std::string cells;
  for (const Scenario& s : scenarios) {
    const Measurement tick = run_scenario(s, sim::EngineMode::kTick);
    const Measurement event = run_scenario(s, sim::EngineMode::kEvent);
    // The event core replays the oracle's arithmetic, so the energies (and
    // their sums over the reps, added in the same order) are equal.
    CORUN_CHECK_MSG(tick.energy == event.energy,
                    "tick/event energy mismatch in " + s.name);
    const double speedup = rate(event) / rate(tick);
    table.add_row({s.name, Table::num(rate(tick)), Table::num(rate(event)),
                   Table::num(speedup) + "x"});
    // Scaling a scenario's simulated and wall time alike keeps its rate
    // and sets its weight in the mix.
    const double weight =
        s.mix_reps > 0 ? static_cast<double>(s.mix_reps) / s.repetitions : 1.0;
    tick_total.simulated += weight * tick.simulated;
    tick_total.wall += weight * tick.wall;
    event_total.simulated += weight * event.simulated;
    event_total.wall += weight * event.wall;
    if (!cells.empty()) cells += ",\n";
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"scenario\": \"%s\", \"tick_sim_per_wall\": %.1f, "
                  "\"event_sim_per_wall\": %.1f, \"speedup\": %.2f",
                  s.name.c_str(), rate(tick), rate(event), speedup);
    cells += buf;
    if (!s.cap) {
      std::snprintf(buf, sizeof(buf),
                    ", \"horizons_work\": %llu, \"replayed_ticks_work\": %llu",
                    static_cast<unsigned long long>(event.horizons),
                    static_cast<unsigned long long>(event.replayed_ticks));
      cells += buf;
    }
    cells += "}";
  }
  const double overall = rate(event_total) / rate(tick_total);
  table.add_row({"overall", Table::num(rate(tick_total)),
                 Table::num(rate(event_total)), Table::num(overall) + "x"});
  std::printf("%s\n", table.render().c_str());
  std::printf("overall event-mode speedup on the mix: %.1fx (target >= 10x)\n",
              overall);

  std::string json = "{\n  \"bench\": \"engine_throughput\",\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"tick_sim_per_wall\": %.1f,\n"
                  "  \"event_sim_per_wall\": %.1f,\n"
                  "  \"event_speedup\": %.2f,\n",
                  rate(tick_total), rate(event_total), overall);
    json += buf;
  }
  json += "  \"scenarios\": [\n" + cells + "\n  ]\n}\n";
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
