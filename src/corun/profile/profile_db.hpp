// Profile database: standalone measurements of every (job, device,
// frequency-level) combination, as collected by the paper's offline
// profiling stage (Sec. V-C). Schedulers and predictive models read times,
// average bandwidths and package powers from here; nothing downstream
// touches the simulator's internals, mirroring how the real system only
// sees measurements.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "corun/common/expected.hpp"
#include "corun/common/units.hpp"
#include "corun/sim/frequency.hpp"

namespace corun::profile {

/// One standalone measurement.
struct ProfileEntry {
  Seconds time = 0.0;       ///< wall time of the standalone run
  GBps avg_bw = 0.0;        ///< average achieved memory bandwidth
  Watts avg_power = 0.0;    ///< average package power during the run
  Joules energy = 0.0;
};

class ProfileDB {
 public:
  void insert(const std::string& job, sim::DeviceKind device,
              sim::FreqLevel level, const ProfileEntry& entry);

  [[nodiscard]] bool contains(const std::string& job, sim::DeviceKind device,
                              sim::FreqLevel level) const;
  [[nodiscard]] const ProfileEntry& at(const std::string& job,
                                       sim::DeviceKind device,
                                       sim::FreqLevel level) const;

  /// All job names present, sorted.
  [[nodiscard]] std::vector<std::string> jobs() const;

  /// Levels recorded for (job, device), ascending.
  [[nodiscard]] std::vector<sim::FreqLevel> levels(const std::string& job,
                                                   sim::DeviceKind device) const;

  /// Every entry recorded for (job, device) with its level, ascending: one
  /// walk of the pair's key range for callers that read the whole row.
  [[nodiscard]] std::vector<std::pair<sim::FreqLevel, ProfileEntry>> row(
      const std::string& job, sim::DeviceKind device) const;

  /// Standalone time at the highest recorded level for (job, device).
  [[nodiscard]] Seconds best_time(const std::string& job,
                                  sim::DeviceKind device) const;

  /// Idle package power (uncore + both domains idle); needed by the power
  /// predictor to avoid double-counting base power when summing standalone
  /// measurements.
  void set_idle_power(Watts idle) { idle_power_ = idle; }
  [[nodiscard]] Watts idle_power() const noexcept { return idle_power_; }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// CSV round trip; schema:
  ///   job,device,level,time_s,avg_bw_gbps,avg_power_w,energy_j
  /// with a leading pseudo-row for the idle power. Doubles are written
  /// %.17g, so a reloaded DB is bit-identical.
  void write_csv(std::ostream& out) const;
  [[nodiscard]] static Expected<ProfileDB> read_csv(const std::string& text);

  /// Cross-run estimation (the third acquisition path Sec. V-C cites,
  /// after offline profiling and online sampling): synthesize the profile
  /// of a *new instance* of an already-profiled program whose input is
  /// `scale` times the measured one. Run time and energy scale linearly
  /// with input size; bandwidth and power are input-size invariant (they
  /// are rates of the same code). Adds entries under `instance` for every
  /// level recorded for `base_job`.
  void add_scaled_instance(const std::string& base_job,
                           const std::string& instance, double scale);

  /// Drifts the recorded standalone times (and energies) of `job` by
  /// `factor` across every (device, level) entry. Models profile
  /// misprediction: the planner's view of the job moves while ground truth
  /// stays put. No-op when the job has no entries.
  void scale_job(const std::string& job, double factor);

 private:
  using Key = std::tuple<std::string, int, int>;
  std::map<Key, ProfileEntry> entries_;
  Watts idle_power_ = 0.0;
};

}  // namespace corun::profile
