// Backend payoff: what each machine-backend fidelity tier costs and how
// honest it stays. Four measurements:
//
//   1. Fidelity across the random-scenario corpus (the same seeds the
//      tests/sim equivalence suites pin): the analytic backend's max abs
//      makespan/energy deviation from the event backend (CHECKed under the
//      suites' 1e-9 tolerance), and record-then-replay reproduced
//      bit-exactly through the RecordingMachine -> ReplayMachine loop.
//   2. Execution throughput per backend (corpus runs/sec, best of rounds)
//      — the event/analytic/replay *_per_wall rate keys
//      scripts/check_bench_regression.py gates on.
//   3. Plan-evaluation speedup: the 11-cap B&B ladder from
//      bench_search_nodes planned with the predictor's dense analytic
//      tables (the default) vs the legacy interpolation path, with the
//      returned schedules CORUN_CHECKed byte-identical at every cap. Each
//      plan gets a freshly built predictor — the dynamic runtime's cost
//      model, which rebuilds the predictor after every profile-DB mutation
//      — so neither side is flattered by a warm memo cache. This is the
//      acceptance headline: >= 5x plans/sec from analytic leaf
//      evaluation, gated by the analytic_plans_per_wall baseline.
//   4. Offline-stage throughput: build_artifacts on the same batch (full
//      ladders, 11x11 grid) on the event and the analytic backend, best of
//      rounds — where the analytic core pays, unlike the single plan
//      executions of measurement 2. The two artifact sets are CHECKed
//      against the analytic tier's documented tolerance (engine.hpp).
//
// Writes BENCH_backend.json.
//
//   ./bench_backend_fidelity [out.json]     (default: BENCH_backend.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "corun/common/check.hpp"
#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/sched/branch_and_bound.hpp"
#include "corun/core/sched/scheduler.hpp"
#include "corun/sim/backend.hpp"
#include "corun/sim/scenario_corpus.hpp"
#include "corun/workload/batch.hpp"

namespace {

using namespace corun;

constexpr double kEquivTol = 1e-9;  // the equivalence suites' tolerance
/// The analytic tier's documented bound on profiled powers and energies,
/// relative to the event backend's (engine.hpp's file comment).
constexpr double kArtifactPowerRelTol = 1e-3;

struct RunSummary {
  Seconds makespan = 0.0;
  Joules energy = 0.0;
};

RunSummary summarize(const sim::Engine& machine) {
  return {machine.now(), machine.telemetry().energy()};
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Backend fidelity",
                "Backend tiers: analytic/replay honesty vs the event "
                "backend, per-backend throughput, the analytic-table "
                "plan-evaluation speedup, and offline-stage throughput.");
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_backend.json";
  const bool quick = bench::quick_mode();
  const sim::MachineConfig config = sim::ivy_bridge();

  // -- 1. Fidelity across the scenario corpus ------------------------------
  const std::size_t corpus = quick ? 20 : 60;
  double max_makespan_err = 0.0;
  double max_energy_err = 0.0;
  std::size_t replay_exact = 0;
  std::vector<sim::Scenario> scenarios;
  for (std::size_t seed = 0; seed < corpus; ++seed) {
    scenarios.push_back(sim::random_scenario(seed));
  }
  for (const sim::Scenario& s : scenarios) {
    const sim::Engine event = sim::execute_scenario(s, sim::EngineMode::kEvent);
    const sim::Engine analytic =
        sim::execute_scenario(s, sim::EngineMode::kAnalytic);
    const RunSummary ev = summarize(event);
    const RunSummary an = summarize(analytic);
    max_makespan_err =
        std::max(max_makespan_err, std::abs(ev.makespan - an.makespan));
    max_energy_err = std::max(max_energy_err, std::abs(ev.energy - an.energy));

    // Record on the event core, then replay the trace: bit-exact.
    sim::EngineOptions eo = s.options;
    eo.mode = sim::EngineMode::kEvent;
    sim::RecordingMachine recorder(config, eo);
    sim::run_scenario(s, recorder);
    sim::ReplayMachine replay(config, eo, recorder.trace());
    sim::run_scenario(s, replay);
    const RunSummary rec = summarize(recorder);
    const RunSummary rep = summarize(replay);
    if (rec.makespan == rep.makespan && rec.energy == rep.energy) {
      ++replay_exact;
    }
  }
  CORUN_CHECK_MSG(max_makespan_err <= kEquivTol && max_energy_err <= kEquivTol,
                  "analytic backend drifted past the equivalence tolerance");
  CORUN_CHECK_MSG(replay_exact == scenarios.size(),
                  "record-then-replay was not bit-exact");
  std::printf("corpus: %zu scenarios\n", scenarios.size());
  std::printf("analytic vs event: max |makespan err| %.3g s, "
              "max |energy err| %.3g J (tol %g)\n",
              max_makespan_err, max_energy_err, kEquivTol);
  std::printf("record-then-replay: %zu/%zu bit-exact\n\n", replay_exact,
              scenarios.size());

  // -- 2. Per-backend execution throughput ---------------------------------
  const int rounds = quick ? 2 : 3;
  double event_rate = 0.0;
  double analytic_rate = 0.0;
  double replay_rate = 0.0;
  // Pre-recorded traces so the replay rounds time replay alone.
  std::vector<sim::DemandTrace> traces;
  for (const sim::Scenario& s : scenarios) {
    sim::EngineOptions eo = s.options;
    eo.mode = sim::EngineMode::kEvent;
    sim::RecordingMachine recorder(config, eo);
    sim::run_scenario(s, recorder);
    traces.push_back(recorder.trace());
  }
  for (int round = 0; round < rounds; ++round) {
    auto t0 = std::chrono::steady_clock::now();
    for (const sim::Scenario& s : scenarios) {
      (void)sim::execute_scenario(s, sim::EngineMode::kEvent);
    }
    double wall = seconds_since(t0);
    if (wall > 0.0) {
      event_rate =
          std::max(event_rate, static_cast<double>(scenarios.size()) / wall);
    }

    t0 = std::chrono::steady_clock::now();
    for (const sim::Scenario& s : scenarios) {
      (void)sim::execute_scenario(s, sim::EngineMode::kAnalytic);
    }
    wall = seconds_since(t0);
    if (wall > 0.0) {
      analytic_rate =
          std::max(analytic_rate, static_cast<double>(scenarios.size()) / wall);
    }

    t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      sim::EngineOptions eo = scenarios[i].options;
      eo.mode = sim::EngineMode::kEvent;
      sim::ReplayMachine replay(config, eo, traces[i]);
      sim::run_scenario(scenarios[i], replay);
    }
    wall = seconds_since(t0);
    if (wall > 0.0) {
      replay_rate =
          std::max(replay_rate, static_cast<double>(scenarios.size()) / wall);
    }
  }
  Table rate_table({"backend", "corpus runs/s"});
  rate_table.add_row({"event", Table::num(event_rate)});
  rate_table.add_row({"analytic", Table::num(analytic_rate)});
  rate_table.add_row({"replay", Table::num(replay_rate)});
  std::printf("%s\n", rate_table.render().c_str());

  // -- 3. Plan-evaluation speedup from analytic leaf evaluation ------------
  const workload::Batch batch = workload::make_batch_8(42);
  const runtime::ModelArtifacts artifacts =
      quick ? bench::quick_artifacts(config, batch)
            : bench::full_artifacts(config, batch);
  std::vector<Watts> caps;
  for (double cap = 10.0; cap <= 20.0; cap += 1.0) caps.push_back(cap);

  // A fresh predictor per plan: the dynamic runtime rebuilds the predictor
  // after every profile-DB mutation, so cold-start cost — table build on
  // the analytic side, memo-cache misses on the legacy side — is part of
  // every real re-plan.
  auto ladder_rate = [&](bool analytic_tables,
                         std::vector<std::string>* plans) {
    double best = 0.0;
    for (int round = 0; round < rounds; ++round) {
      if (plans != nullptr && round > 0) break;
      const auto t0 = std::chrono::steady_clock::now();
      for (const Watts cap : caps) {
        const model::CoRunPredictor predictor(
            artifacts.db, artifacts.grid, config,
            model::PredictorOptions{.analytic_tables = analytic_tables});
        sched::SchedulerContext ctx;
        ctx.batch = &batch;
        ctx.predictor = &predictor;
        ctx.cap = cap;
        sched::BranchAndBoundScheduler bnb;
        const sched::Schedule plan = bnb.plan(ctx);
        if (plans != nullptr) {
          plans->push_back(plan.to_string(ctx.job_names()));
        }
      }
      const double wall = seconds_since(t0);
      if (wall > 0.0) {
        best = std::max(best, static_cast<double>(caps.size()) / wall);
      }
    }
    return best;
  };
  // One checked pass proves byte-identity; the timed passes then run free.
  std::vector<std::string> analytic_plans;
  std::vector<std::string> legacy_plans;
  (void)ladder_rate(true, &analytic_plans);
  (void)ladder_rate(false, &legacy_plans);
  CORUN_CHECK_MSG(analytic_plans == legacy_plans,
                  "analytic leaf evaluation changed a schedule");
  const double analytic_plan_rate = ladder_rate(true, nullptr);
  const double legacy_plan_rate = ladder_rate(false, nullptr);
  const double speedup =
      legacy_plan_rate > 0.0 ? analytic_plan_rate / legacy_plan_rate : 0.0;
  std::printf("plan evaluation: analytic tables %.1f plans/s, legacy "
              "%.1f plans/s (%.1fx, byte-identical schedules)\n",
              analytic_plan_rate, legacy_plan_rate, speedup);

  // -- 4. Offline-stage throughput per backend -----------------------------
  // Full ladders even in quick mode. Profile times, bandwidths and grid
  // cells are CHECKed within the corpus tolerance; powers and energies
  // within kArtifactPowerRelTol relative: Engine::advance_jobs_bulk rounds
  // once per replayed window where event stepping rounds every tick, which
  // can move a phase end by one tick, and the profile then integrates that
  // tick at the other phase's power.
  runtime::ArtifactOptions event_options;
  event_options.backend.kind = sim::BackendKind::kEvent;
  runtime::ArtifactOptions analytic_options = event_options;
  analytic_options.backend.kind = sim::BackendKind::kAnalytic;
  const runtime::ModelArtifacts ev =
      runtime::build_artifacts(config, batch, event_options);
  const runtime::ModelArtifacts an =
      runtime::build_artifacts(config, batch, analytic_options);
  CORUN_CHECK(ev.db.size() == an.db.size() &&
              ev.grid.cpu_axis == an.grid.cpu_axis &&
              ev.grid.gpu_axis == an.grid.gpu_axis);
  double model_err = std::abs(ev.db.idle_power() - an.db.idle_power());
  double power_err = 0.0;
  double power_rel_err = 0.0;
  std::size_t power_mismatches = 0;
  for (const std::string& job : ev.db.jobs()) {
    for (const auto d : {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
      for (const sim::FreqLevel level : ev.db.levels(job, d)) {
        const profile::ProfileEntry& x = ev.db.at(job, d, level);
        const profile::ProfileEntry& y = an.db.at(job, d, level);
        model_err = std::max({model_err, std::abs(x.time - y.time),
                              std::abs(x.avg_bw - y.avg_bw)});
        const double err = std::max(std::abs(x.avg_power - y.avg_power),
                                    std::abs(x.energy - y.energy));
        power_err = std::max(power_err, err);
        power_rel_err = std::max(
            {power_rel_err, std::abs(x.avg_power - y.avg_power) / x.avg_power,
             std::abs(x.energy - y.energy) / x.energy});
        if (err > kEquivTol) ++power_mismatches;
      }
    }
  }
  for (std::size_t i = 0; i < ev.grid.cpu_deg.size(); ++i) {
    for (std::size_t j = 0; j < ev.grid.cpu_deg[i].size(); ++j) {
      model_err = std::max(
          {model_err, std::abs(ev.grid.cpu_deg[i][j] - an.grid.cpu_deg[i][j]),
           std::abs(ev.grid.gpu_deg[i][j] - an.grid.gpu_deg[i][j])});
    }
  }
  CORUN_CHECK_MSG(model_err <= kEquivTol,
                  "analytic artifacts drifted past the equivalence tolerance");
  CORUN_CHECK_MSG(power_rel_err <= kArtifactPowerRelTol,
                  "analytic profile powers drifted past the documented bound");
  auto artifacts_rate = [&](const runtime::ArtifactOptions& options) {
    double best = 0.0;
    for (int round = 0; round < rounds; ++round) {
      const auto t0 = std::chrono::steady_clock::now();
      (void)runtime::build_artifacts(config, batch, options);
      best = std::max(best, 1.0 / seconds_since(t0));
    }
    return best;
  };
  const double event_artifacts_rate = artifacts_rate(event_options);
  const double analytic_artifacts_rate = artifacts_rate(analytic_options);
  std::printf("build_artifacts: event %.2f/s, analytic %.2f/s (%.2fx); "
              "max |err| %.3g on times/bandwidths/grid, %.3g on "
              "powers/energies (%.2g relative, bound %g; %zu of %zu "
              "entries over %g)\n",
              event_artifacts_rate, analytic_artifacts_rate,
              analytic_artifacts_rate / event_artifacts_rate, model_err,
              power_err, power_rel_err, kArtifactPowerRelTol,
              power_mismatches, ev.db.size(), kEquivTol);

  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"bench\": \"backend\",\n"
                "  \"corpus_scenarios\": %zu,\n"
                "  \"max_abs_makespan_err\": %.3g,\n"
                "  \"max_abs_energy_err\": %.3g,\n"
                "  \"replay_bit_exact\": %zu,\n"
                "  \"event_runs_per_wall\": %.1f,\n"
                "  \"analytic_runs_per_wall\": %.1f,\n"
                "  \"replay_runs_per_wall\": %.1f,\n"
                "  \"analytic_plans_per_wall\": %.1f,\n"
                "  \"legacy_plans_per_wall\": %.1f,\n"
                "  \"plan_eval_speedup_x\": %.1f,\n"
                "  \"max_abs_artifact_err\": %.3g,\n"
                "  \"max_abs_artifact_power_err\": %.3g,\n"
                "  \"max_rel_artifact_power_err\": %.3g,\n"
                "  \"artifact_power_mismatches\": %zu,\n"
                "  \"event_artifacts_per_wall\": %.2f,\n"
                "  \"analytic_artifacts_per_wall\": %.2f\n}\n",
                scenarios.size(), max_makespan_err, max_energy_err,
                replay_exact, event_rate, analytic_rate, replay_rate,
                analytic_plan_rate, legacy_plan_rate, speedup, model_err,
                power_err, power_rel_err, power_mismatches,
                event_artifacts_rate,
                analytic_artifacts_rate);
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  std::fputs(buf, out);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
