#include "corun/sim/demand_trace.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "corun/common/csv.hpp"

namespace corun::sim {

namespace {

constexpr const char* kCsvHeader[] = {
    "job",    "device",          "launch_time",     "phase_idx", "dur_ref",
    "compute_frac", "mem_bw", "llc_footprint_mb", "llc_sensitivity"};

}  // namespace

Expected<std::vector<RecordedLaunch>> DemandTrace::launches() const {
  std::vector<RecordedLaunch> out;
  std::vector<Phase> phases;
  LlcBehavior llc;
  const auto flush = [&](std::size_t upto) -> Expected<bool> {
    if (phases.empty()) return true;
    const DemandTraceRow& first = rows[upto - phases.size()];
    RecordedLaunch launch;
    launch.name = first.job;
    launch.device = first.device;
    launch.launch_time = first.launch_time;
    launch.profile = DeviceProfile(phases, llc);
    out.push_back(std::move(launch));
    phases.clear();
    return true;
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DemandTraceRow& r = rows[i];
    if (r.phase_idx == 0) {
      const auto flushed = flush(i);
      if (!flushed.has_value()) return flushed.error();
    } else if (phases.empty() || r.phase_idx != phases.size() ||
               rows[i - 1].job != r.job || rows[i - 1].device != r.device) {
      return fail("demand trace row " + std::to_string(i) +
                      ": phase rows of one launch must be contiguous and "
                      "start at phase_idx 0",
                  ErrorCategory::kParse);
    }
    phases.push_back(r.phase);
    llc = r.llc;
  }
  const auto flushed = flush(rows.size());
  if (!flushed.has_value()) return flushed.error();
  return out;
}

void demand_trace_to_csv(const DemandTrace& trace, std::ostream& out) {
  CsvWriter writer(out);
  writer.write_row(std::vector<std::string>(std::begin(kCsvHeader),
                                            std::end(kCsvHeader)));
  for (const DemandTraceRow& r : trace.rows) {
    writer.write_row({r.job, r.device == DeviceKind::kCpu ? "cpu" : "gpu",
                      csv_double(r.launch_time), std::to_string(r.phase_idx),
                      csv_double(r.phase.dur_ref),
                      csv_double(r.phase.compute_frac),
                      csv_double(r.phase.mem_bw), csv_double(r.llc.footprint_mb),
                      csv_double(r.llc.sensitivity)});
  }
}

Expected<DemandTrace> demand_trace_from_csv(const std::string& text) {
  const auto rows = parse_csv(text);
  if (!rows.has_value()) return rows.error();
  DemandTrace trace;
  bool header = true;
  for (const auto& row : rows.value()) {
    if (header) {
      header = false;
      if (row.empty() || row[0] != "job") {
        return fail("demand trace CSV must start with: job,device,...",
                    ErrorCategory::kParse);
      }
      continue;
    }
    if (row.size() != 9) {
      return fail("demand trace CSV row arity != 9", ErrorCategory::kParse);
    }
    DemandTraceRow r;
    r.job = row[0];
    if (row[1] == "cpu") {
      r.device = DeviceKind::kCpu;
    } else if (row[1] == "gpu") {
      r.device = DeviceKind::kGpu;
    } else {
      return fail("demand trace device '" + row[1] + "' (expected cpu|gpu)",
                  ErrorCategory::kParse);
    }
    try {
      r.launch_time = std::stod(row[2]);
      r.phase_idx = static_cast<std::size_t>(std::stoull(row[3]));
      r.phase.dur_ref = std::stod(row[4]);
      r.phase.compute_frac = std::stod(row[5]);
      r.phase.mem_bw = std::stod(row[6]);
      r.llc.footprint_mb = std::stod(row[7]);
      r.llc.sensitivity = std::stod(row[8]);
    } catch (const std::exception& ex) {
      return fail(std::string("demand trace CSV parse error: ") + ex.what(),
                  ErrorCategory::kParse);
    }
    trace.rows.push_back(std::move(r));
  }
  // Validate the grouping once at parse time so ReplayMachine can trust it.
  const auto launches = trace.launches();
  if (!launches.has_value()) return launches.error();
  return trace;
}

Expected<DemandTrace> load_demand_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return fail("cannot open demand trace '" + path + "'",
                ErrorCategory::kIo);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return demand_trace_from_csv(buffer.str());
}

Expected<bool> save_demand_trace(const DemandTrace& trace,
                                 const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return fail("cannot write demand trace '" + path + "'",
                ErrorCategory::kIo);
  }
  demand_trace_to_csv(trace, out);
  out.flush();
  if (!out) {
    return fail("short write to demand trace '" + path + "'",
                ErrorCategory::kIo);
  }
  return true;
}

}  // namespace corun::sim
