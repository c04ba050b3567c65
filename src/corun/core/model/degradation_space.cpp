#include "corun/core/model/degradation_space.hpp"

#include <algorithm>
#include <memory>
#include <ostream>
#include <sstream>

#include "corun/common/check.hpp"
#include "corun/common/csv.hpp"
#include "corun/common/task_pool.hpp"
#include "corun/sim/engine.hpp"
#include "corun/workload/microbench.hpp"

namespace corun::model {

bool DegradationGrid::valid() const noexcept {
  if (cpu_axis.empty() || gpu_axis.empty()) return false;
  if (cpu_deg.size() != cpu_axis.size() || gpu_deg.size() != cpu_axis.size()) {
    return false;
  }
  for (const auto& row : cpu_deg) {
    if (row.size() != gpu_axis.size()) return false;
  }
  for (const auto& row : gpu_deg) {
    if (row.size() != gpu_axis.size()) return false;
  }
  return true;
}

double DegradationGrid::max_cpu_degradation() const {
  CORUN_CHECK(valid());
  double best = 0.0;
  for (const auto& row : cpu_deg) {
    for (double d : row) best = std::max(best, d);
  }
  return best;
}

double DegradationGrid::max_gpu_degradation() const {
  CORUN_CHECK(valid());
  double best = 0.0;
  for (const auto& row : gpu_deg) {
    for (double d : row) best = std::max(best, d);
  }
  return best;
}

void DegradationGrid::write_csv(std::ostream& out) const {
  CORUN_CHECK(valid());
  CsvWriter writer(out);
  writer.write_row({"cpu_bw", "gpu_bw", "cpu_deg", "gpu_deg"});
  for (std::size_t i = 0; i < cpu_axis.size(); ++i) {
    for (std::size_t j = 0; j < gpu_axis.size(); ++j) {
      writer.write_row({csv_double(cpu_axis[i]), csv_double(gpu_axis[j]),
                        csv_double(cpu_deg[i][j]), csv_double(gpu_deg[i][j])});
    }
  }
}

Expected<DegradationGrid> DegradationGrid::read_csv(const std::string& text) {
  const auto rows = parse_csv(text);
  if (!rows.has_value()) return rows.error();
  DegradationGrid grid;
  bool header = true;
  std::vector<std::tuple<double, double, double, double>> cells;
  for (const auto& row : rows.value()) {
    if (header) {
      header = false;
      continue;
    }
    if (row.size() != 4) return fail("grid CSV row arity != 4", ErrorCategory::kParse);
    try {
      cells.emplace_back(std::stod(row[0]), std::stod(row[1]),
                         std::stod(row[2]), std::stod(row[3]));
    } catch (const std::exception& ex) {
      return fail(std::string("grid CSV parse error: ") + ex.what(), ErrorCategory::kParse);
    }
  }
  if (cells.empty()) return fail("grid CSV has no cells", ErrorCategory::kParse);
  for (const auto& [cb, gb, cd, gd] : cells) {
    if (grid.cpu_axis.empty() || grid.cpu_axis.back() != cb) {
      if (std::find(grid.cpu_axis.begin(), grid.cpu_axis.end(), cb) ==
          grid.cpu_axis.end()) {
        grid.cpu_axis.push_back(cb);
      }
    }
    if (std::find(grid.gpu_axis.begin(), grid.gpu_axis.end(), gb) ==
        grid.gpu_axis.end()) {
      grid.gpu_axis.push_back(gb);
    }
  }
  std::sort(grid.cpu_axis.begin(), grid.cpu_axis.end());
  std::sort(grid.gpu_axis.begin(), grid.gpu_axis.end());
  grid.cpu_deg.assign(grid.cpu_axis.size(),
                      std::vector<double>(grid.gpu_axis.size(), 0.0));
  grid.gpu_deg = grid.cpu_deg;
  auto index_of = [](const std::vector<double>& axis, double v) {
    return static_cast<std::size_t>(
        std::find(axis.begin(), axis.end(), v) - axis.begin());
  };
  for (const auto& [cb, gb, cd, gd] : cells) {
    const std::size_t i = index_of(grid.cpu_axis, cb);
    const std::size_t j = index_of(grid.gpu_axis, gb);
    if (i >= grid.cpu_axis.size() || j >= grid.gpu_axis.size()) {
      return fail("grid CSV inconsistent axes", ErrorCategory::kParse);
    }
    grid.cpu_deg[i][j] = cd;
    grid.gpu_deg[i][j] = gd;
  }
  if (!grid.valid()) return fail("grid CSV did not form a full grid", ErrorCategory::kParse);
  return grid;
}

DegradationSpaceBuilder::DegradationSpaceBuilder(sim::MachineConfig config,
                                                 CharacterizationOptions options)
    : config_(std::move(config)), options_(options) {
  CORUN_CHECK(options_.subject_duration > 0.0);
  CORUN_CHECK(options_.partner_scale > 1.0);
}

double DegradationSpaceBuilder::measure_cell(sim::DeviceKind subject_device,
                                             GBps subject_bw,
                                             GBps partner_bw) const {
  const auto subject_desc =
      workload::micro_kernel(subject_bw, options_.subject_duration);
  const auto partner_desc = workload::micro_kernel(
      partner_bw, options_.subject_duration * options_.partner_scale);
  CORUN_CHECK(subject_desc.has_value() && partner_desc.has_value());

  const sim::JobSpec subject =
      workload::make_job_spec(subject_desc.value(), options_.seed);
  const sim::JobSpec partner =
      workload::make_job_spec(partner_desc.value(), options_.seed + 1);

  const sim::DeviceKind partner_device = sim::other_device(subject_device);

  // Standalone reference at max frequency.
  const sim::StandaloneResult solo = sim::run_standalone(
      config_, subject, subject_device, config_.cpu_ladder.max_level(),
      config_.gpu_ladder.max_level(), options_.seed, options_.backend);

  // Contended run: partner outlives the subject, so the subject is under
  // co-run pressure for its entire execution.
  sim::EngineOptions engine_options;
  engine_options.seed = options_.seed;
  engine_options.record_samples = false;
  const std::unique_ptr<sim::Engine> machine =
      sim::make_machine_model(config_, engine_options, options_.backend);
  sim::Engine& engine = *machine;
  engine.set_ceilings(config_.cpu_ladder.max_level(),
                      config_.gpu_ladder.max_level());
  engine.launch(partner, partner_device);
  const sim::JobId subject_id = engine.launch(subject, subject_device);
  while (!engine.stats(subject_id).finished) {
    const auto events = engine.run_until_event();
    CORUN_CHECK_MSG(!events.empty() || engine.idle(),
                    "engine stalled during characterization");
    if (engine.idle()) break;
  }
  const Seconds contended = engine.stats(subject_id).runtime();
  return std::max(0.0, (contended - solo.time) / solo.time);
}

DegradationGrid DegradationSpaceBuilder::characterize() const {
  return characterize(workload::micro_grid_levels(),
                      workload::micro_grid_levels());
}

DegradationGrid DegradationSpaceBuilder::characterize(
    std::vector<GBps> cpu_axis, std::vector<GBps> gpu_axis) const {
  CORUN_CHECK(!cpu_axis.empty() && !gpu_axis.empty());
  DegradationGrid grid;
  grid.cpu_axis = std::move(cpu_axis);
  grid.gpu_axis = std::move(gpu_axis);
  grid.cpu_deg.assign(grid.cpu_axis.size(),
                      std::vector<double>(grid.gpu_axis.size(), 0.0));
  grid.gpu_deg = grid.cpu_deg;
  // One task per grid cell (two co-runs each). Every cell is a fixed-seed
  // simulation writing its own pair of slots, so the grid — and the CSV
  // artifact — is byte-identical whatever the worker count.
  const std::size_t cols = grid.gpu_axis.size();
  common::TaskPool::shared().parallel_for_index(
      grid.cpu_axis.size() * cols, [&](std::size_t cell) {
        const std::size_t i = cell / cols;
        const std::size_t j = cell % cols;
        grid.cpu_deg[i][j] = measure_cell(sim::DeviceKind::kCpu,
                                          grid.cpu_axis[i], grid.gpu_axis[j]);
        grid.gpu_deg[i][j] = measure_cell(sim::DeviceKind::kGpu,
                                          grid.gpu_axis[j], grid.cpu_axis[i]);
      });
  return grid;
}

}  // namespace corun::model
