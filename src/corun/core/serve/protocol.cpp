#include "corun/core/serve/protocol.hpp"

#include <errno.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "corun/common/csv.hpp"

namespace corun::serve {

namespace {

constexpr std::string_view kTraceColumns[] = {"seq",    "cap",  "scheduler",
                                              "policy", "seed", "jobs"};

Expected<std::optional<Watts>> parse_cap(const std::string& text) {
  if (text.empty()) return std::optional<Watts>{};
  const auto cap = parse_number<Watts>(text);
  if (!cap.has_value()) {
    return fail("cap: " + cap.error().message, ErrorCategory::kParse);
  }
  return std::optional<Watts>{cap.value()};
}

std::string join_jobs(const std::vector<std::string>& jobs) {
  std::string out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i > 0) out += ';';
    out += jobs[i];
  }
  return out;
}

std::vector<std::string> split_jobs(const std::string& text) {
  std::vector<std::string> jobs;
  std::string current;
  for (const char c : text) {
    if (c == ';') {
      if (!current.empty()) jobs.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) jobs.push_back(current);
  return jobs;
}

Expected<PlanRequest> request_from_row(const std::vector<std::string>& row,
                                       std::size_t first_field) {
  // Fields from `first_field`: seq, cap, scheduler, policy, seed, jobs...
  if (row.size() < first_field + 5) {
    return fail("request row has too few fields", ErrorCategory::kParse);
  }
  PlanRequest request;
  const auto seq = parse_number<std::uint64_t>(row[first_field]);
  if (!seq.has_value()) {
    return fail("seq: " + seq.error().message, ErrorCategory::kParse);
  }
  request.seq = seq.value();
  auto cap = parse_cap(row[first_field + 1]);
  if (!cap.has_value()) return cap.error();
  request.cap = cap.value();
  request.scheduler = row[first_field + 2];
  request.policy = row[first_field + 3];
  if (request.scheduler.empty()) {
    return fail("request has empty scheduler", ErrorCategory::kParse);
  }
  const auto seed = parse_number<std::uint64_t>(row[first_field + 4]);
  if (!seed.has_value()) {
    return fail("seed: " + seed.error().message, ErrorCategory::kParse);
  }
  request.seed = seed.value();
  return request;
}

}  // namespace

const char* response_status_name(ResponseStatus s) noexcept {
  switch (s) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kBusy: return "busy";
    case ResponseStatus::kError: return "error";
  }
  return "?";
}

std::string request_to_payload(const PlanRequest& request) {
  std::ostringstream oss;
  CsvWriter writer(oss);
  std::vector<std::string> row{
      "plan", std::to_string(request.seq),
      request.cap ? csv_double(*request.cap) : std::string{},
      request.scheduler, request.policy, std::to_string(request.seed)};
  row.insert(row.end(), request.jobs.begin(), request.jobs.end());
  writer.write_row(row);
  std::string payload = oss.str();
  // One row, no trailing newline on the wire.
  if (!payload.empty() && payload.back() == '\n') payload.pop_back();
  return payload;
}

Expected<PlanRequest> request_from_payload(const std::string& payload) {
  const auto rows = parse_csv(payload);
  if (!rows.has_value()) return rows.error();
  const auto& r = rows.value();
  if (r.size() != 1 || r[0].empty() || r[0][0] != "plan") {
    return fail("request payload must be one 'plan' row",
                ErrorCategory::kParse);
  }
  auto parsed = request_from_row(r[0], 1);
  if (!parsed.has_value()) return parsed.error();
  PlanRequest request = std::move(parsed).value();
  request.jobs.assign(r[0].begin() + 6, r[0].end());
  for (const std::string& job : request.jobs) {
    if (job.empty()) {
      return fail("request has empty job name", ErrorCategory::kParse);
    }
  }
  return request;
}

std::string response_to_payload(const PlanResponse& response) {
  std::ostringstream oss;
  oss << response_status_name(response.status) << ',' << response.seq << ','
      << response.message << '\n'
      << response.body;
  return oss.str();
}

Expected<PlanResponse> response_from_payload(const std::string& payload) {
  const auto line_end = payload.find('\n');
  const std::string line =
      line_end == std::string::npos ? payload : payload.substr(0, line_end);
  PlanResponse response;
  response.body =
      line_end == std::string::npos ? "" : payload.substr(line_end + 1);
  const auto c1 = line.find(',');
  if (c1 == std::string::npos) {
    return fail("response status line lacks fields", ErrorCategory::kParse);
  }
  const auto c2 = line.find(',', c1 + 1);
  if (c2 == std::string::npos) {
    return fail("response status line lacks message field",
                ErrorCategory::kParse);
  }
  const std::string status = line.substr(0, c1);
  if (status == "ok") {
    response.status = ResponseStatus::kOk;
  } else if (status == "busy") {
    response.status = ResponseStatus::kBusy;
  } else if (status == "error") {
    response.status = ResponseStatus::kError;
  } else {
    return fail("unknown response status '" + status + "'",
                ErrorCategory::kParse);
  }
  const auto seq = parse_number<std::uint64_t>(
      std::string_view(line).substr(c1 + 1, c2 - c1 - 1));
  if (!seq.has_value()) {
    return fail("seq: " + seq.error().message, ErrorCategory::kParse);
  }
  response.seq = seq.value();
  response.message = line.substr(c2 + 1);
  return response;
}

bool write_frame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  unsigned char header[4];
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  header[0] = static_cast<unsigned char>(n & 0xff);
  header[1] = static_cast<unsigned char>((n >> 8) & 0xff);
  header[2] = static_cast<unsigned char>((n >> 16) & 0xff);
  header[3] = static_cast<unsigned char>((n >> 24) & 0xff);
  std::string wire(reinterpret_cast<const char*>(header), 4);
  wire += payload;
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t w = ::write(fd, wire.data() + sent, wire.size() - sent);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

namespace {

/// Reads exactly `n` bytes; returns the count actually read before EOF.
Expected<std::size_t> read_exact(int fd, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return fail(std::string("read failed: ") + std::strerror(errno),
                  ErrorCategory::kIo);
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

}  // namespace

Expected<std::optional<std::string>> read_frame(int fd) {
  char header[4];
  auto got = read_exact(fd, header, 4);
  if (!got.has_value()) return got.error();
  if (got.value() == 0) return std::optional<std::string>{};  // clean EOF
  if (got.value() < 4) {
    return fail("torn frame: EOF inside length prefix", ErrorCategory::kIo);
  }
  const std::uint32_t n =
      static_cast<std::uint32_t>(static_cast<unsigned char>(header[0])) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[1])) << 8) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[2]))
       << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[3]))
       << 24);
  if (n > kMaxFrameBytes) {
    return fail("frame length " + std::to_string(n) + " exceeds limit",
                ErrorCategory::kParse);
  }
  std::string payload(n, '\0');
  got = read_exact(fd, payload.data(), n);
  if (!got.has_value()) return got.error();
  if (got.value() < n) {
    return fail("torn frame: EOF inside payload", ErrorCategory::kIo);
  }
  return std::optional<std::string>{std::move(payload)};
}

void request_trace_to_csv(const std::vector<PlanRequest>& requests,
                          std::ostream& out) {
  CsvWriter writer(out);
  writer.write_row(kTraceColumns);
  for (const PlanRequest& request : requests) {
    writer.write_row(
        {std::to_string(request.seq),
         request.cap ? csv_double(*request.cap) : std::string{},
         request.scheduler, request.policy, std::to_string(request.seed),
         join_jobs(request.jobs)});
  }
}

Expected<std::vector<PlanRequest>> request_trace_from_csv(
    const std::string& text) {
  auto rows = read_csv_table(text, kTraceColumns, "request trace");
  if (!rows.has_value()) return rows.error();
  std::vector<PlanRequest> requests;
  for (const Record& row : std::move(rows).value()) {
    auto parsed = request_from_row(row.fields(), 0);
    if (!parsed.has_value()) {
      return fail(row.where() + ": " + parsed.error().message,
                  ErrorCategory::kParse);
    }
    PlanRequest request = std::move(parsed).value();
    request.jobs = split_jobs(row["jobs"]);
    requests.push_back(std::move(request));
  }
  return requests;
}

Expected<std::vector<PlanRequest>> load_request_trace(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return fail("cannot open request trace '" + path + "'",
                ErrorCategory::kIo);
  }
  std::ostringstream content;
  content << in.rdbuf();
  if (in.bad()) {
    return fail("read error on request trace '" + path + "'",
                ErrorCategory::kIo);
  }
  return request_trace_from_csv(content.str());
}

}  // namespace corun::serve
