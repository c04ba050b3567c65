#include "corun/sim/demand_trace.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "corun/common/csv.hpp"

namespace corun::sim {

namespace {

constexpr std::string_view kCsvColumns[] = {
    "job",    "device",          "launch_time",     "phase_idx", "dur_ref",
    "compute_frac", "mem_bw", "llc_footprint_mb", "llc_sensitivity"};

}  // namespace

Expected<std::vector<RecordedLaunch>> DemandTrace::launches() const {
  std::vector<RecordedLaunch> out;
  std::vector<Phase> phases;
  LlcBehavior llc;
  const auto flush = [&](std::size_t upto) {
    if (phases.empty()) return;
    const DemandTraceRow& first = rows[upto - phases.size()];
    RecordedLaunch launch;
    launch.name = first.job;
    launch.device = first.device;
    launch.launch_time = first.launch_time;
    launch.profile = DeviceProfile(phases, llc);
    out.push_back(std::move(launch));
    phases.clear();
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DemandTraceRow& r = rows[i];
    if (r.phase_idx == 0) {
      flush(i);
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
  flush(rows.size());
  return out;
}

void demand_trace_to_csv(const DemandTrace& trace, std::ostream& out) {
  CsvWriter writer(out);
  writer.write_row(kCsvColumns);
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
  auto rows = read_csv_table(text, kCsvColumns, "demand trace CSV");
  if (!rows.has_value()) return rows.error();
  DemandTrace trace;
  for (Record& row : std::move(rows).value()) {
    DemandTraceRow r;
    r.job = row["job"];
    if (row["device"] == "gpu") {
      r.device = DeviceKind::kGpu;
    } else if (row["device"] != "cpu") {
      row.fail_field("device", "'" + row["device"] + "' is not cpu|gpu");
    }
    row.read("launch_time", r.launch_time);
    row.read("phase_idx", r.phase_idx);
    row.read("dur_ref", r.phase.dur_ref);
    row.read("compute_frac", r.phase.compute_frac);
    row.read("mem_bw", r.phase.mem_bw);
    row.read("llc_footprint_mb", r.llc.footprint_mb);
    row.read("llc_sensitivity", r.llc.sensitivity);
    // DeviceProfile's ranges, so a trace that loads always replays.
    if (!(r.phase.dur_ref > 0.0)) row.fail_field("dur_ref", "must be > 0");
    if (!(r.phase.compute_frac >= 0.0 && r.phase.compute_frac <= 1.0)) {
      row.fail_field("compute_frac", "must be in [0, 1]");
    }
    if (r.phase.mem_bw < 0.0) row.fail_field("mem_bw", "must be >= 0");
    if (r.llc.footprint_mb < 0.0) {
      row.fail_field("llc_footprint_mb", "must be >= 0");
    }
    if (r.llc.sensitivity < 0.0) {
      row.fail_field("llc_sensitivity", "must be >= 0");
    }
    if (row.error()) return *row.error();
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
