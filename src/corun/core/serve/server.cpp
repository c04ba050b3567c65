#include "corun/core/serve/server.hpp"

#include <algorithm>

#include "corun/common/check.hpp"
#include "corun/common/task_pool.hpp"
#include "corun/common/trace/trace.hpp"

namespace corun::serve {

namespace {

PlanResponse make_response(std::uint64_t seq, ResponseStatus status,
                           std::string message, std::string body = {}) {
  PlanResponse response;
  response.seq = seq;
  response.status = status;
  response.message = std::move(message);
  response.body = std::move(body);
  return response;
}

PlanResponse make_busy(std::uint64_t seq, std::string reason) {
  return make_response(seq, ResponseStatus::kBusy, std::move(reason));
}

}  // namespace

ServeSession::ServeSession(const PlanService& service, ServeOptions options)
    : service_(&service), options_(options) {
  CORUN_CHECK_MSG(options_.queue_capacity > 0,
                  "serve queue capacity must be > 0");
}

std::vector<PlanResponse> ServeSession::serve_chunk(
    std::vector<TimedRequest> chunk) {
  CORUN_TRACE_SPAN("serve", "serve.chunk");
  stats_.received += chunk.size();
  std::vector<PlanResponse> responses;
  responses.reserve(chunk.size());

  // Bounded queue: arrival order decides who gets a slot; the rest are
  // answered busy without buffering further.
  std::vector<TimedRequest> admitted;
  admitted.reserve(std::min(chunk.size(), options_.queue_capacity));
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    if (i < options_.queue_capacity) {
      admitted.push_back(std::move(chunk[i]));
    } else {
      responses.push_back(make_busy(chunk[i].request.seq, "queue full"));
    }
  }

  const Seconds deadline = options_.deadline_seconds;
  auto planned = common::TaskPool::shared().parallel_map<PlanResponse>(
      admitted.size(), [&](std::size_t i) -> PlanResponse {
        const TimedRequest& timed = admitted[i];
        const std::uint64_t seq = timed.request.seq;
        if (deadline > 0.0) {
          const Seconds age = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  timed.arrival)
                                  .count();
          if (age > deadline) return make_busy(seq, "deadline exceeded");
        }
        auto result = service_->plan(timed.request);
        if (!result.has_value()) {
          return make_response(seq, ResponseStatus::kError,
                               result.error().message);
        }
        return make_response(seq, ResponseStatus::kOk, "",
                             std::move(result).value().text);
      });
  for (PlanResponse& response : planned) {
    responses.push_back(std::move(response));
  }

  for (const PlanResponse& response : responses) {
    switch (response.status) {
      case ResponseStatus::kOk: ++stats_.ok; break;
      case ResponseStatus::kBusy: ++stats_.busy; break;
      case ResponseStatus::kError: ++stats_.errors; break;
    }
  }

  // Response assembly: ascending seq, stable so duplicate client seqs keep
  // arrival order. Emission order is then independent of which worker
  // finished first.
  std::stable_sort(responses.begin(), responses.end(),
                   [](const PlanResponse& a, const PlanResponse& b) {
                     return a.seq < b.seq;
                   });
  return responses;
}

}  // namespace corun::serve
