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

namespace {

constexpr std::string_view kCsvColumns[] = {"cpu_bw", "gpu_bw", "cpu_deg",
                                            "gpu_deg"};

}  // namespace

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
  writer.write_row(kCsvColumns);
  for (std::size_t i = 0; i < cpu_axis.size(); ++i) {
    for (std::size_t j = 0; j < gpu_axis.size(); ++j) {
      writer.write_row({csv_double(cpu_axis[i]), csv_double(gpu_axis[j]),
                        csv_double(cpu_deg[i][j]), csv_double(gpu_deg[i][j])});
    }
  }
}

Expected<DegradationGrid> DegradationGrid::read_csv(const std::string& text) {
  auto rows = read_csv_table(text, kCsvColumns, "grid CSV");
  if (!rows.has_value()) return rows.error();
  DegradationGrid grid;
  std::vector<std::tuple<double, double, double, double>> cells;
  for (Record& row : std::move(rows).value()) {
    auto& [cb, gb, cd, gd] = cells.emplace_back();
    row.read("cpu_bw", cb);
    row.read("gpu_bw", gb);
    row.read("cpu_deg", cd);
    row.read("gpu_deg", gd);
    if (row.error()) return *row.error();
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
  return corun_degradation(subject_device, subject_bw, partner_bw,
                           solo_time(subject_device, subject_bw));
}

Seconds DegradationSpaceBuilder::solo_time(sim::DeviceKind subject_device,
                                           GBps subject_bw) const {
  const auto subject_desc =
      workload::micro_kernel(subject_bw, options_.subject_duration);
  CORUN_CHECK(subject_desc.has_value());
  const sim::JobSpec subject =
      workload::make_job_spec(subject_desc.value(), options_.seed);
  // Standalone reference at max frequency.
  return sim::run_standalone(config_, subject, subject_device,
                             config_.cpu_ladder.max_level(),
                             config_.gpu_ladder.max_level(), options_.seed,
                             options_.backend)
      .time;
}

double DegradationSpaceBuilder::corun_degradation(
    sim::DeviceKind subject_device, GBps subject_bw, GBps partner_bw,
    Seconds solo) const {
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
  return std::max(0.0, (contended - solo) / solo);
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
  // A cell's solo reference depends only on its subject (device, axis
  // value), so the standalone runs come first, one task per axis value
  // and device, then one task per grid cell (two co-runs each). Every run
  // is a fixed-seed simulation writing its own slot, so the grid — and the
  // CSV artifact — is byte-identical whatever the worker count, and equal
  // to measure_cell's cell by cell.
  const std::size_t rows = grid.cpu_axis.size();
  const std::size_t cols = grid.gpu_axis.size();
  std::vector<Seconds> cpu_solo(rows);
  std::vector<Seconds> gpu_solo(cols);
  common::TaskPool& pool = common::TaskPool::shared();
  pool.parallel_for_index(rows + cols, [&](std::size_t k) {
    if (k < rows) {
      cpu_solo[k] = solo_time(sim::DeviceKind::kCpu, grid.cpu_axis[k]);
    } else {
      gpu_solo[k - rows] =
          solo_time(sim::DeviceKind::kGpu, grid.gpu_axis[k - rows]);
    }
  });
  pool.parallel_for_index(rows * cols, [&](std::size_t cell) {
    const std::size_t i = cell / cols;
    const std::size_t j = cell % cols;
    grid.cpu_deg[i][j] =
        corun_degradation(sim::DeviceKind::kCpu, grid.cpu_axis[i],
                          grid.gpu_axis[j], cpu_solo[i]);
    grid.gpu_deg[i][j] =
        corun_degradation(sim::DeviceKind::kGpu, grid.gpu_axis[j],
                          grid.cpu_axis[i], gpu_solo[j]);
  });
  return grid;
}

}  // namespace corun::model
