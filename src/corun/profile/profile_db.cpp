#include "corun/profile/profile_db.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>

#include "corun/common/check.hpp"
#include "corun/common/csv.hpp"

namespace corun::profile {
namespace {

constexpr std::string_view kCsvColumns[] = {
    "job",         "device",      "level",   "time_s",
    "avg_bw_gbps", "avg_power_w", "energy_j"};

std::tuple<std::string, int, int> make_key(const std::string& job,
                                           sim::DeviceKind device,
                                           sim::FreqLevel level) {
  return {job, static_cast<int>(device), level};
}

/// Calls fn(level, entry) for every entry of (job, device), ascending.
/// Keys order by job, then device, then level, so those entries are one
/// contiguous range that starts at the pair's lowest possible key.
template <typename Fn>
void for_each_level(
    const std::map<std::tuple<std::string, int, int>, ProfileEntry>& entries,
    const std::string& job, sim::DeviceKind device, Fn&& fn) {
  for (auto it = entries.lower_bound(
           make_key(job, device, std::numeric_limits<int>::min()));
       it != entries.end() && std::get<0>(it->first) == job &&
       std::get<1>(it->first) == static_cast<int>(device);
       ++it) {
    fn(std::get<2>(it->first), it->second);
  }
}

}  // namespace

void ProfileDB::insert(const std::string& job, sim::DeviceKind device,
                       sim::FreqLevel level, const ProfileEntry& entry) {
  CORUN_CHECK(!job.empty());
  CORUN_CHECK(level >= 0);
  CORUN_CHECK(entry.time > 0.0);
  entries_[make_key(job, device, level)] = entry;
}

bool ProfileDB::contains(const std::string& job, sim::DeviceKind device,
                         sim::FreqLevel level) const {
  return entries_.count(make_key(job, device, level)) > 0;
}

const ProfileEntry& ProfileDB::at(const std::string& job,
                                  sim::DeviceKind device,
                                  sim::FreqLevel level) const {
  const auto it = entries_.find(make_key(job, device, level));
  CORUN_CHECK_MSG(it != entries_.end(),
                  "no profile for " + job + " on " + sim::device_name(device) +
                      " at level " + std::to_string(level));
  return it->second;
}

std::vector<std::string> ProfileDB::jobs() const {
  std::vector<std::string> names;
  for (const auto& [key, entry] : entries_) {
    const std::string& job = std::get<0>(key);
    if (names.empty() || names.back() != job) names.push_back(job);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

std::vector<sim::FreqLevel> ProfileDB::levels(const std::string& job,
                                              sim::DeviceKind device) const {
  std::vector<sim::FreqLevel> out;
  for_each_level(entries_, job, device,
                 [&out](sim::FreqLevel level, const ProfileEntry&) {
                   out.push_back(level);
                 });
  return out;
}

std::vector<std::pair<sim::FreqLevel, ProfileEntry>> ProfileDB::row(
    const std::string& job, sim::DeviceKind device) const {
  std::vector<std::pair<sim::FreqLevel, ProfileEntry>> out;
  for_each_level(entries_, job, device,
                 [&out](sim::FreqLevel level, const ProfileEntry& e) {
                   out.emplace_back(level, e);
                 });
  return out;
}

Seconds ProfileDB::best_time(const std::string& job,
                             sim::DeviceKind device) const {
  const auto lv = levels(job, device);
  CORUN_CHECK_MSG(!lv.empty(), "no profiles for " + job);
  return at(job, device, lv.back()).time;
}

void ProfileDB::add_scaled_instance(const std::string& base_job,
                                    const std::string& instance,
                                    double scale) {
  CORUN_CHECK_MSG(scale > 0.0, "input scale must be positive");
  CORUN_CHECK_MSG(instance != base_job,
                  "scaled instance needs a distinct name");
  bool any = false;
  for (const sim::DeviceKind device :
       {sim::DeviceKind::kCpu, sim::DeviceKind::kGpu}) {
    for (const sim::FreqLevel level : levels(base_job, device)) {
      const ProfileEntry& base = at(base_job, device, level);
      insert(instance, device, level,
             ProfileEntry{.time = base.time * scale,
                          .avg_bw = base.avg_bw,
                          .avg_power = base.avg_power,
                          .energy = base.energy * scale});
      any = true;
    }
  }
  CORUN_CHECK_MSG(any, "no profiles recorded for " + base_job);
}

void ProfileDB::scale_job(const std::string& job, double factor) {
  CORUN_CHECK_MSG(factor > 0.0, "profile drift factor must be positive");
  for (auto& [key, entry] : entries_) {
    if (std::get<0>(key) != job) continue;
    entry.time *= factor;
    entry.energy *= factor;
  }
}

void ProfileDB::write_csv(std::ostream& out) const {
  CsvWriter writer(out);
  writer.write_row(kCsvColumns);
  writer.write_row({"__idle__", "-", "0", "0", "0", csv_double(idle_power_),
                    "0"});
  for (const auto& [key, e] : entries_) {
    writer.write_row({std::get<0>(key),
                      std::get<1>(key) == 0 ? "cpu" : "gpu",
                      std::to_string(std::get<2>(key)), csv_double(e.time),
                      csv_double(e.avg_bw), csv_double(e.avg_power),
                      csv_double(e.energy)});
  }
}

Expected<ProfileDB> ProfileDB::read_csv(const std::string& text) {
  auto rows = read_csv_table(text, kCsvColumns, "profile CSV");
  if (!rows.has_value()) return rows.error();
  ProfileDB db;
  for (Record& row : std::move(rows).value()) {
    if (row["job"] == "__idle__") {
      row.read("avg_power_w", db.idle_power_);
      if (row.error()) return *row.error();
      continue;
    }
    sim::DeviceKind device = sim::DeviceKind::kCpu;
    if (row["device"] == "gpu") {
      device = sim::DeviceKind::kGpu;
    } else if (row["device"] != "cpu") {
      row.fail_field("device", "'" + row["device"] + "' is not cpu|gpu");
    }
    sim::FreqLevel level = 0;
    ProfileEntry e;
    row.read("level", level);
    row.read("time_s", e.time);
    row.read("avg_bw_gbps", e.avg_bw);
    row.read("avg_power_w", e.avg_power);
    row.read("energy_j", e.energy);
    // insert()'s contract, checked here so a bad row is a parse error.
    if (row["job"].empty()) row.fail_field("job", "empty");
    if (level < 0) row.fail_field("level", "negative");
    if (e.time <= 0.0) row.fail_field("time_s", "not > 0");
    if (row.error()) return *row.error();
    db.insert(row["job"], device, level, e);
  }
  return db;
}

}  // namespace corun::profile
