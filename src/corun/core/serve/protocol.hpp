// Wire protocol of the scheduling daemon (corun-served / corun-replay).
//
// Transport: a bidirectional byte stream (Unix socket or stdin/stdout
// pipe) carrying length-prefixed frames — a 4-byte little-endian payload
// length followed by that many payload bytes. Length prefixing keeps the
// stream self-delimiting under batching: the daemon drains every frame
// that is already available before planning, and the client can pipeline
// thousands of requests without any handshake per request.
//
// Payloads are text. A request is one CSV row:
//
//   plan,<seq>,<cap>,<scheduler>,<policy>,<seed>[,<job>...]
//
// where `seq` is the client-chosen sequence id (replies are emitted in
// ascending seq order per chunk — the deterministic response-assembly
// stage), `cap` is the power cap rendered %.17g, > 0 ("" = uncapped),
// `scheduler` a registry name, `policy` gpu|cpu, `seed` the scheduler
// seed, and the optional job tail selects a subset of the daemon's batch
// by instance name ("" tail = the full batch).
//
// A response payload is a status line followed by the body:
//
//   <ok|busy|error>,<seq>,<message>\n<body>
//
// `ok` bodies are byte-identical to what `corun-schedule` prints for the
// same request over the same artifacts. `busy` is the honest overload
// answer (bounded queue overflow or per-request deadline exceeded); the
// request was *not* planned. `error` covers malformed or unsatisfiable
// requests (unknown scheduler, unknown job name).
//
// The replay corpus mirrors the demand-trace CSV conventions: a header
// row, one row per request, doubles rendered %.17g so caps round-trip
// exactly:
//
//   seq,cap,scheduler,policy,seed,jobs
//   0,15,bnb,gpu,42,sc;lud
//
// with `jobs` ';'-joined ("" = full batch).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "corun/common/expected.hpp"
#include "corun/common/units.hpp"

namespace corun::serve {

struct PlanRequest {
  std::uint64_t seq = 0;
  std::optional<Watts> cap;             ///< nullopt = uncapped
  std::string scheduler = "hcs+";       ///< registry name
  std::string policy = "gpu";           ///< "gpu" | "cpu"
  std::uint64_t seed = 42;
  std::vector<std::string> jobs;        ///< instance names; empty = full batch
};

enum class ResponseStatus { kOk, kBusy, kError };

[[nodiscard]] const char* response_status_name(ResponseStatus s) noexcept;

struct PlanResponse {
  std::uint64_t seq = 0;
  ResponseStatus status = ResponseStatus::kOk;
  std::string message;  ///< busy/error reason; "" for ok
  std::string body;     ///< ok: the corun-schedule report text
};

// ---- payload forms -------------------------------------------------------

[[nodiscard]] std::string request_to_payload(const PlanRequest& request);
[[nodiscard]] Expected<PlanRequest> request_from_payload(
    const std::string& payload);

[[nodiscard]] std::string response_to_payload(const PlanResponse& response);
[[nodiscard]] Expected<PlanResponse> response_from_payload(
    const std::string& payload);

// ---- framing -------------------------------------------------------------

/// Upper bound on a single frame payload; a longer announced length is
/// treated as a protocol error rather than an allocation request.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 24;

/// Writes one frame (length prefix + payload) to `fd`, retrying short
/// writes and EINTR. Returns false on IO failure.
bool write_frame(int fd, const std::string& payload);

/// Reads one frame from `fd` (blocking). Returns the payload; an engaged
/// Expected holding nullopt means clean end-of-stream before any byte of
/// a frame. A torn frame (EOF mid-frame), an oversized length, or an IO
/// error is an Error.
[[nodiscard]] Expected<std::optional<std::string>> read_frame(int fd);

// ---- replay corpus -------------------------------------------------------

void request_trace_to_csv(const std::vector<PlanRequest>& requests,
                          std::ostream& out);
[[nodiscard]] Expected<std::vector<PlanRequest>> request_trace_from_csv(
    const std::string& text);
[[nodiscard]] Expected<std::vector<PlanRequest>> load_request_trace(
    const std::string& path);

}  // namespace corun::serve
