// corun-served: the long-running scheduling daemon.
//
// Loads the offline artifacts (batch, profiles, degradation grid) ONCE,
// then serves length-prefixed planning requests (see
// corun/core/serve/protocol.hpp) until end-of-stream or SIGTERM/SIGINT:
//
//   corun-served --batch batch.csv --profiles profiles.csv --grid grid.csv
//                [--socket /tmp/corun.sock]        # default: stdin/stdout
//                [--queue-capacity 256] [--deadline-ms 0]
//                [--jobs N] [--trace t.json]
//                [--plan-cache off|mem|mem:N|dir:PATH]   # default: mem
//
// Natural batching: every frame already readable on the transport is
// drained into one chunk before planning, so a pipelining client amortizes
// the plan-cache and task-pool costs while an interactive client keeps
// per-request latency. Responses of a chunk are emitted in ascending seq
// order; `ok` bodies are byte-identical to `corun-schedule` over the same
// artifacts regardless of batch composition, arrival interleaving, or
// `--jobs`.
//
// Shutdown: SIGTERM/SIGINT (or client EOF in stdin mode) ends the serve
// loop; the daemon prints its session counters and the plan-cache report
// to stderr and exits 0.
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "corun/core/serve/plan_service.hpp"
#include "corun/core/serve/protocol.hpp"
#include "corun/core/serve/server.hpp"
#include "tool_io.hpp"

namespace {

volatile sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

/// Installs SIGTERM/SIGINT handlers WITHOUT SA_RESTART so a signal makes
/// the blocking poll() below return EINTR instead of restarting silently.
void install_signal_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = handle_stop;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  // A client that disconnects mid-response must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
}

/// Waits until `fd` is readable. Returns false when the daemon should stop
/// (signal) instead of reading.
bool wait_readable(int fd) {
  while (g_stop == 0) {
    struct pollfd pfd{fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, -1);
    if (r > 0) return true;
    if (r < 0 && errno != EINTR) return false;
  }
  return false;
}

/// True when `fd` has bytes ready right now (drain probe; never blocks).
bool readable_now(int fd) {
  struct pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, 0) > 0;
}

/// Serves one connected stream until clean EOF, IO error, or stop signal.
/// Frames that fail to parse are answered `error` with seq 0 (the seq is
/// unknowable); they sort ahead of the chunk's planned responses.
void serve_stream(int in_fd, int out_fd, corun::serve::ServeSession& session) {
  using corun::serve::PlanResponse;
  using corun::serve::ResponseStatus;
  using corun::serve::TimedRequest;
  while (g_stop == 0) {
    if (!wait_readable(in_fd)) return;

    // Drain every frame already on the transport into one chunk.
    std::vector<TimedRequest> chunk;
    std::vector<PlanResponse> malformed;
    do {
      auto frame = corun::serve::read_frame(in_fd);
      if (!frame.has_value()) {
        std::fprintf(stderr, "corun-served: %s\n",
                     frame.error().message.c_str());
        return;
      }
      if (!frame.value().has_value()) {  // clean EOF
        if (chunk.empty() && malformed.empty()) return;
        break;
      }
      auto request = corun::serve::request_from_payload(*frame.value());
      if (!request.has_value()) {
        PlanResponse bad;
        bad.status = ResponseStatus::kError;
        bad.message = request.error().message;
        malformed.push_back(std::move(bad));
        continue;
      }
      chunk.push_back(TimedRequest{std::move(request).value(),
                                   std::chrono::steady_clock::now()});
    } while (readable_now(in_fd));

    std::vector<PlanResponse> responses = session.serve_chunk(std::move(chunk));
    responses.insert(responses.end(),
                     std::make_move_iterator(malformed.begin()),
                     std::make_move_iterator(malformed.end()));
    std::stable_sort(responses.begin(), responses.end(),
                     [](const PlanResponse& a, const PlanResponse& b) {
                       return a.seq < b.seq;
                     });
    for (const PlanResponse& response : responses) {
      if (!corun::serve::write_frame(
              out_fd, corun::serve::response_to_payload(response))) {
        std::fprintf(stderr, "corun-served: response write failed\n");
        return;
      }
    }
  }
}

/// Binds and listens on a fresh Unix stream socket at `path` (replacing a
/// stale file). Returns the listening fd, or -1 with a message on stderr.
int listen_unix(const std::string& path) {
  struct sockaddr_un addr;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "corun-served: socket path too long: %s\n",
                 path.c_str());
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "corun-served: socket: %s\n", std::strerror(errno));
    return -1;
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 8) < 0) {
    std::fprintf(stderr, "corun-served: bind/listen %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return -1;
  }
  return fd;
}

int run(const corun::tools::Tool& tool) {
  using namespace corun;
  const Flags& f = tool.flags;
  serve::ServeOptions options;
  options.queue_capacity = f.positive<std::size_t>("queue-capacity", 256);
  options.deadline_seconds =
      static_cast<double>(f.number<std::uint64_t>("deadline-ms", 0)) / 1000.0;

  // Startup cost paid once: artifacts, predictor, plan cache.
  const auto artifacts = tools::load_artifacts(f);
  if (!artifacts.has_value()) {
    return tool.usage_error(artifacts.error().message);
  }
  const model::CoRunPredictor predictor(
      artifacts.value().db, artifacts.value().grid, sim::ivy_bridge());
  serve::PlanService service(artifacts.value().batch, predictor,
                             tool.plan_cache);
  serve::ServeSession session(service, options);
  install_signal_handlers();

  const std::string socket_path = f.get("socket", "");
  if (socket_path.empty()) {
    serve_stream(STDIN_FILENO, STDOUT_FILENO, session);
  } else {
    const int listen_fd = listen_unix(socket_path);
    if (listen_fd < 0) return 1;
    std::fprintf(stderr, "corun-served: listening on %s\n",
                 socket_path.c_str());
    while (g_stop == 0) {
      if (!wait_readable(listen_fd)) break;
      const int client = ::accept(listen_fd, nullptr, nullptr);
      if (client < 0) {
        if (errno == EINTR) continue;
        std::fprintf(stderr, "corun-served: accept: %s\n",
                     std::strerror(errno));
        break;
      }
      serve_stream(client, client, session);
      ::close(client);
    }
    ::close(listen_fd);
    ::unlink(socket_path.c_str());
  }

  const serve::ServeStats& stats = session.stats();
  std::fprintf(stderr,
               "corun-served: received=%llu ok=%llu busy=%llu errors=%llu\n",
               static_cast<unsigned long long>(stats.received),
               static_cast<unsigned long long>(stats.ok),
               static_cast<unsigned long long>(stats.busy),
               static_cast<unsigned long long>(stats.errors));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace corun::tools;
  return run_tool(
      argc, argv,
      {.synopsis = "corun-served --batch batch.csv --profiles profiles.csv "
                   "--grid grid.csv [--socket PATH] [--queue-capacity 256] "
                   "[--deadline-ms 0]",
       .flags = {"batch", "profiles", "grid", "socket", "queue-capacity",
                 "deadline-ms"},
       .shared = kJobs | kTrace | kPlanCache,
       .plan_cache_default = "mem"},
      run);
}
