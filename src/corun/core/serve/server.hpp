// ServeSession: concurrent request planning with graceful degradation.
//
// The daemon's IO loop hands the session *chunks* — every request frame
// that was available on the transport when it went to plan (natural
// batching: a busy client pipelines, an idle one gets per-request
// latency). The session:
//
//   1. admits at most `queue_capacity` requests per chunk in arrival
//      order; the overflow is answered `busy` immediately — the bounded
//      queue that keeps a request storm from buffering unboundedly;
//   2. drops admitted requests whose age (now - arrival) already exceeds
//      `deadline_seconds` with `busy` — the per-request deadline that
//      keeps a cold-cache storm from turning into a multi-second hang;
//      the check runs right before planning starts, on the worker;
//   3. plans the remainder concurrently on the shared TaskPool (so
//      `--jobs` governs serving parallelism exactly as it governs every
//      other sweep); a request PlanService::plan fails, a planner's
//      contract violation included, is answered `error`;
//   4. emits every response of the chunk in ascending sequence-id order —
//      the deterministic response-assembly stage. Planned bodies are
//      byte-identical regardless of chunk composition, arrival
//      interleaving, or worker count (the plan-cache contract); only
//      busy/error triage depends on load and timing.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "corun/common/units.hpp"
#include "corun/core/serve/plan_service.hpp"
#include "corun/core/serve/protocol.hpp"

namespace corun::serve {

struct ServeOptions {
  std::size_t queue_capacity = 256;  ///< admitted requests per chunk
  Seconds deadline_seconds = 0.0;    ///< 0 = no per-request deadline
};

/// Monotonic session counters (single IO thread; read between chunks).
struct ServeStats {
  std::uint64_t received = 0;
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t errors = 0;
};

/// A parsed request plus its transport arrival time (the deadline clock).
struct TimedRequest {
  PlanRequest request;
  std::chrono::steady_clock::time_point arrival;
};

class ServeSession {
 public:
  ServeSession(const PlanService& service, ServeOptions options);

  /// Serves one chunk; returns all its responses in ascending seq order
  /// (ties — duplicate client seqs — keep arrival order).
  [[nodiscard]] std::vector<PlanResponse> serve_chunk(
      std::vector<TimedRequest> chunk);

  [[nodiscard]] const ServeStats& stats() const noexcept { return stats_; }

 private:
  const PlanService* service_;
  ServeOptions options_;
  ServeStats stats_;
};

}  // namespace corun::serve
