// Serving-core throughput: how many plans per second the daemon's planning
// core (PlanService + ServeSession over the shared plan cache) sustains,
// with the transport stripped away. Three measurements on the 8-program
// batch:
//
//   1. Exact-hit serving: a warmed cache answering repeated chunks of an
//      11-cap ladder. This is the daemon's steady state; the acceptance
//      floor is 10k plans/s (an exact hit is a signature assembly, one
//      cache probe, a CSV parse, and an evaluator pass).
//   2. Cold misses: the same ladder against a fresh cache per pass — every
//      request pays a full B&B search plus a store. The honest baseline
//      the cache is amortizing.
//   3. Wire protocol overhead: request/response payload encode+decode
//      round trips per second, to keep the framing cost visibly negligible
//      next to planning.
//
// Every response of every chunk must come back `ok` with the bytes of the
// warmed reference — serving throughput never buys nondeterminism.
//
// Writes BENCH_serve.json with *_per_wall rate keys so
// scripts/check_bench_regression.py can gate on them.
//
//   ./bench_serve_throughput [out.json]     (default: BENCH_serve.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "corun/common/check.hpp"
#include "corun/core/model/corun_predictor.hpp"
#include "corun/core/sched/plan_cache/plan_cache.hpp"
#include "corun/core/serve/plan_service.hpp"
#include "corun/core/serve/protocol.hpp"
#include "corun/core/serve/server.hpp"
#include "corun/workload/batch.hpp"

namespace {

using namespace corun;

std::vector<Watts> cap_ladder() {
  std::vector<Watts> caps;
  for (double cap = 10.0; cap <= 20.0; cap += 1.0) caps.push_back(cap);
  return caps;
}

/// One chunk: the whole ladder repeated `reps` times, seqs 0..n-1.
std::vector<serve::TimedRequest> make_chunk(const std::vector<Watts>& caps,
                                            int reps) {
  std::vector<serve::TimedRequest> chunk;
  const auto now = std::chrono::steady_clock::now();
  std::uint64_t seq = 0;
  for (int r = 0; r < reps; ++r) {
    for (const Watts cap : caps) {
      serve::TimedRequest timed;
      timed.request.seq = seq++;
      timed.request.cap = cap;
      timed.request.scheduler = "bnb";
      timed.arrival = now;
      chunk.push_back(std::move(timed));
    }
  }
  return chunk;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Serve throughput",
                "Plans per second through PlanService + ServeSession: "
                "exact-hit steady state, cold misses, and wire overhead.");
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  const bool quick = bench::quick_mode();

  const sim::MachineConfig config = sim::ivy_bridge();
  const workload::Batch batch = workload::make_batch_8(42);
  const runtime::ModelArtifacts artifacts =
      quick ? bench::quick_artifacts(config, batch)
            : bench::full_artifacts(config, batch);
  const model::CoRunPredictor predictor(artifacts.db, artifacts.grid, config);
  const std::vector<Watts> caps = cap_ladder();

  // -- 1. Exact-hit serving ------------------------------------------------
  auto cache = sched::PlanCache::from_spec("mem").value();
  serve::PlanService service(batch, predictor, cache);
  serve::ServeOptions options;
  options.queue_capacity = 1 << 14;  // throughput run: nothing sheds
  serve::ServeSession session(service, options);

  // Warm pass (all misses) doubles as the byte-identity reference.
  std::map<std::uint64_t, std::string> reference;
  {
    auto warm = session.serve_chunk(make_chunk(caps, 1));
    for (const auto& response : warm) {
      CORUN_CHECK(response.status == serve::ResponseStatus::kOk);
      reference[response.seq % caps.size()] = response.body;
    }
  }
  CORUN_CHECK(cache->stats().stores == caps.size());

  const int rounds = quick ? 2 : 3;
  const int reps = quick ? 16 : 64;
  double best_hit = 0.0;
  for (int round = 0; round < rounds; ++round) {
    auto chunk = make_chunk(caps, reps);
    const std::size_t n = chunk.size();
    const auto t0 = std::chrono::steady_clock::now();
    const auto responses = session.serve_chunk(std::move(chunk));
    const double wall = seconds_since(t0);
    CORUN_CHECK(responses.size() == n);
    for (const auto& response : responses) {
      CORUN_CHECK(response.status == serve::ResponseStatus::kOk);
      CORUN_CHECK(response.body == reference[response.seq % caps.size()]);
    }
    if (wall > 0.0) {
      best_hit = std::max(best_hit, static_cast<double>(n) / wall);
    }
  }
  CORUN_CHECK(session.stats().busy == 0 && session.stats().errors == 0);

  // -- 2. Cold misses ------------------------------------------------------
  double best_cold = 0.0;
  for (int round = 0; round < rounds; ++round) {
    auto fresh = sched::PlanCache::from_spec("mem").value();
    serve::PlanService cold_service(batch, predictor, fresh);
    serve::ServeSession cold_session(cold_service, options);
    const auto t0 = std::chrono::steady_clock::now();
    const auto responses = cold_session.serve_chunk(make_chunk(caps, 1));
    const double wall = seconds_since(t0);
    for (const auto& response : responses) {
      CORUN_CHECK(response.status == serve::ResponseStatus::kOk);
      CORUN_CHECK(response.body == reference[response.seq % caps.size()]);
    }
    if (wall > 0.0) {
      best_cold = std::max(best_cold,
                           static_cast<double>(caps.size()) / wall);
    }
  }

  // -- 3. Wire protocol overhead -------------------------------------------
  const int wire_iters = quick ? 20000 : 100000;
  serve::PlanRequest wire_request;
  wire_request.cap = 15.0;
  wire_request.scheduler = "bnb";
  wire_request.jobs = {"sc", "lud", "cfd"};
  serve::PlanResponse wire_response;
  wire_response.body = reference[0];
  double wire_rate = 0.0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t sink = 0;
    for (int i = 0; i < wire_iters; ++i) {
      wire_request.seq = static_cast<std::uint64_t>(i);
      const auto req =
          serve::request_from_payload(serve::request_to_payload(wire_request));
      wire_response.seq = static_cast<std::uint64_t>(i);
      const auto resp = serve::response_from_payload(
          serve::response_to_payload(wire_response));
      CORUN_CHECK(req.has_value() && resp.has_value());
      sink += req.value().jobs.size() + resp.value().body.size();
    }
    const double wall = seconds_since(t0);
    CORUN_CHECK(sink > 0);
    if (wall > 0.0) wire_rate = static_cast<double>(wire_iters) / wall;
  }

  const double speedup = best_cold > 0.0 ? best_hit / best_cold : 0.0;
  Table table({"measurement", "rate", "note"});
  table.add_row({"exact-hit plans/s", Table::num(best_hit),
                 best_hit >= 10000.0 ? "meets 10k floor" : "BELOW 10k floor"});
  table.add_row({"cold-miss plans/s", Table::num(best_cold),
                 "full B&B + store"});
  table.add_row({"hit/cold speedup", Table::num(speedup) + "x", ""});
  table.add_row({"wire round trips/s", Table::num(wire_rate),
                 "encode+decode, both directions"});
  std::printf("%s\n", table.render().c_str());

  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"bench\": \"serve\",\n"
                "  \"serve_hit_plans_per_wall\": %.1f,\n"
                "  \"serve_cold_plans_per_wall\": %.1f,\n"
                "  \"serve_hit_speedup\": %.1f,\n"
                "  \"wire_roundtrips_per_wall\": %.1f\n}\n",
                best_hit, best_cold, speedup, wire_rate);
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
