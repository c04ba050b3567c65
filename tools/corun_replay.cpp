// corun-replay: fire a recorded request trace at a running corun-served
// instance and emit the response bodies.
//
//   corun-replay --requests trace.csv --socket /tmp/corun.sock
//                [--window 64] [--output out.txt] [--repeat 1]
//
// The trace is the CSV corpus documented in corun/core/serve/protocol.hpp
// (header `seq,cap,scheduler,policy,seed,jobs`, caps rendered %.17g so
// they round-trip exactly). Requests are pipelined with up to `--window`
// outstanding, which exercises the daemon's natural batching; `--repeat N`
// replays the whole trace N times back-to-back (cache warm-up and
// throughput runs).
//
// Output: the bodies of all responses of the LAST repetition, ordered by
// ascending seq, concatenated — so for an all-`ok` replay the output is
// byte-identical to running `corun-schedule` once per trace row and
// concatenating the stdouts. Statuses other than `ok` are reported on
// stderr. Exit code: 0 all ok, 1 transport failure, 2 usage error, 3 some
// requests answered busy/error.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "corun/core/serve/protocol.hpp"
#include "tool_io.hpp"

namespace {

int connect_unix(const std::string& path) {
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "corun-replay: socket path too long: %s\n",
                 path.c_str());
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "corun-replay: socket: %s\n", std::strerror(errno));
    return -1;
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    std::fprintf(stderr, "corun-replay: connect %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Replays the trace once over `fd` with a bounded pipeline window.
/// Returns the responses (transport order), or nullopt on a transport
/// failure.
std::optional<std::vector<corun::serve::PlanResponse>> replay_once(
    int fd, const std::vector<corun::serve::PlanRequest>& requests,
    std::size_t window) {
  std::vector<corun::serve::PlanResponse> responses;
  responses.reserve(requests.size());
  std::size_t sent = 0;
  while (responses.size() < requests.size()) {
    while (sent < requests.size() && sent - responses.size() < window) {
      if (!corun::serve::write_frame(
              fd, corun::serve::request_to_payload(requests[sent]))) {
        std::fprintf(stderr, "corun-replay: request write failed\n");
        return std::nullopt;
      }
      ++sent;
    }
    auto frame = corun::serve::read_frame(fd);
    if (!frame.has_value()) {
      std::fprintf(stderr, "corun-replay: %s\n", frame.error().message.c_str());
      return std::nullopt;
    }
    if (!frame.value().has_value()) {
      std::fprintf(stderr, "corun-replay: daemon closed the stream early\n");
      return std::nullopt;
    }
    auto response = corun::serve::response_from_payload(*frame.value());
    if (!response.has_value()) {
      std::fprintf(stderr, "corun-replay: %s\n",
                   response.error().message.c_str());
      return std::nullopt;
    }
    responses.push_back(std::move(response).value());
  }
  return responses;
}

int run(const corun::tools::Tool& tool) {
  using namespace corun;
  const Flags& f = tool.flags;
  for (const char* required : {"requests", "socket"}) {
    if (!f.has(required)) {
      return tool.usage_error(std::string("--") + required + " is required");
    }
  }
  const auto requests = serve::load_request_trace(f.get("requests", ""));
  if (!requests.has_value()) {
    return tool.usage_error(requests.error().message);
  }
  const auto window = f.positive<std::size_t>("window", 64);
  const auto repeat = f.positive<std::size_t>("repeat", 1);

  const int fd = connect_unix(f.get("socket", ""));
  if (fd < 0) return 1;

  std::vector<serve::PlanResponse> last;
  for (std::size_t i = 0; i < repeat; ++i) {
    auto responses = replay_once(fd, requests.value(), window);
    if (!responses.has_value()) {
      ::close(fd);
      return 1;
    }
    last = std::move(responses).value();
  }
  ::close(fd);

  // Global seq order makes the emitted bytes independent of how the daemon
  // happened to chunk the pipelined stream.
  std::stable_sort(last.begin(), last.end(),
                   [](const serve::PlanResponse& a,
                      const serve::PlanResponse& b) { return a.seq < b.seq; });

  std::string out_text;
  std::uint64_t ok = 0, busy = 0, errors = 0;
  for (const serve::PlanResponse& response : last) {
    switch (response.status) {
      case serve::ResponseStatus::kOk:
        ++ok;
        out_text += response.body;
        break;
      case serve::ResponseStatus::kBusy: ++busy; break;
      case serve::ResponseStatus::kError: ++errors; break;
    }
    if (response.status != serve::ResponseStatus::kOk) {
      std::fprintf(stderr, "corun-replay: seq %llu %s: %s\n",
                   static_cast<unsigned long long>(response.seq),
                   serve::response_status_name(response.status),
                   response.message.c_str());
    }
  }

  const std::string out_path = f.get("output", "");
  if (out_path.empty()) {
    std::fputs(out_text.c_str(), stdout);
  } else if (!tools::write_file(out_path, out_text)) {
    return 1;
  }
  std::fprintf(stderr, "corun-replay: %llu ok, %llu busy, %llu error\n",
               static_cast<unsigned long long>(ok),
               static_cast<unsigned long long>(busy),
               static_cast<unsigned long long>(errors));
  return (busy + errors) > 0 ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return corun::tools::run_tool(
      argc, argv,
      {.synopsis = "corun-replay --requests trace.csv --socket PATH "
                   "[--window 64] [--output out.txt] [--repeat 1]",
       .flags = {"requests", "socket", "window", "output", "repeat"}},
      run);
}
