#include "corun/sim/fault_injector.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>

#include "corun/common/csv.hpp"
#include "corun/common/rng.hpp"

namespace corun::sim {

namespace {

constexpr const char* kCsvHeader[] = {"time",   "kind", "program",
                                      "input_scale", "seed", "target",
                                      "cap",    "factor", "duration"};

}  // namespace

const char* fault_kind_name(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kArrival: return "arrival";
    case FaultKind::kCancel: return "cancel";
    case FaultKind::kCapSet: return "cap";
    case FaultKind::kProfileNoise: return "noise";
    case FaultKind::kMeterDropout: return "dropout";
  }
  return "?";
}

Expected<FaultKind> parse_fault_kind(const std::string& text) {
  if (text == "arrival") return FaultKind::kArrival;
  if (text == "cancel") return FaultKind::kCancel;
  if (text == "cap") return FaultKind::kCapSet;
  if (text == "noise") return FaultKind::kProfileNoise;
  if (text == "dropout") return FaultKind::kMeterDropout;
  return fail("unknown fault kind '" + text +
                  "' (expected arrival|cancel|cap|noise|dropout)",
              ErrorCategory::kParse);
}

void FaultPlan::sort() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
}

Expected<bool> FaultPlan::validate() const {
  Seconds prev = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    const std::string where = "event " + std::to_string(i) + " (" +
                              fault_kind_name(e.kind) + ")";
    if (e.time < 0.0) {
      return fail(where + ": negative time", ErrorCategory::kInvalidArgument);
    }
    if (e.time < prev) {
      return fail(where + ": stream is not time-sorted (call sort())",
                  ErrorCategory::kInvalidArgument);
    }
    prev = e.time;
    switch (e.kind) {
      case FaultKind::kArrival:
        if (e.program.empty()) {
          return fail(where + ": arrival without a program",
                      ErrorCategory::kInvalidArgument);
        }
        if (e.input_scale <= 0.0) {
          return fail(where + ": non-positive input scale",
                      ErrorCategory::kInvalidArgument);
        }
        break;
      case FaultKind::kCapSet:
        if (e.cap && *e.cap <= 0.0) {
          return fail(where + ": non-positive cap",
                      ErrorCategory::kInvalidArgument);
        }
        break;
      case FaultKind::kProfileNoise:
        if (e.factor <= 0.0) {
          return fail(where + ": non-positive noise factor",
                      ErrorCategory::kInvalidArgument);
        }
        break;
      case FaultKind::kMeterDropout:
        if (e.duration <= 0.0) {
          return fail(where + ": non-positive dropout duration",
                      ErrorCategory::kInvalidArgument);
        }
        break;
      case FaultKind::kCancel:
        break;
    }
  }
  return true;
}

void fault_plan_to_csv(const FaultPlan& plan, std::ostream& out) {
  CsvWriter writer(out);
  writer.write_row(std::vector<std::string>(std::begin(kCsvHeader),
                                            std::end(kCsvHeader)));
  for (const FaultEvent& e : plan.events) {
    writer.write_row(
        {csv_double(e.time), fault_kind_name(e.kind),
         e.program.empty() ? "-" : e.program, csv_double(e.input_scale),
         std::to_string(e.seed), std::to_string(e.target),
         e.cap ? csv_double(*e.cap) : "-", csv_double(e.factor),
         csv_double(e.duration)});
  }
}

Expected<FaultPlan> fault_plan_from_csv(const std::string& text) {
  const auto rows = parse_csv(text);
  if (!rows.has_value()) return rows.error();
  FaultPlan plan;
  bool header = true;
  for (const auto& row : rows.value()) {
    if (header) {
      header = false;
      if (row.empty() || row[0] != "time") {
        return fail("fault plan CSV must start with: time,kind,...",
                    ErrorCategory::kParse);
      }
      continue;
    }
    if (row.size() != 9) {
      return fail("fault plan CSV row arity != 9", ErrorCategory::kParse);
    }
    FaultEvent e;
    const auto kind = parse_fault_kind(row[1]);
    if (!kind.has_value()) return kind.error();
    e.kind = kind.value();
    try {
      // "-" in any optional column keeps the field's default, so
      // hand-authored plans only need to fill the columns their kind uses.
      e.time = std::stod(row[0]);
      if (row[2] != "-") e.program = row[2];
      if (row[3] != "-") e.input_scale = std::stod(row[3]);
      if (row[4] != "-") {
        e.seed = static_cast<std::uint64_t>(std::stoull(row[4]));
      }
      if (row[5] != "-") e.target = static_cast<int>(std::stol(row[5]));
      if (row[6] != "-") e.cap = std::stod(row[6]);
      if (row[7] != "-") e.factor = std::stod(row[7]);
      if (row[8] != "-") e.duration = std::stod(row[8]);
    } catch (const std::exception& ex) {
      return fail(std::string("fault plan CSV parse error: ") + ex.what(),
                  ErrorCategory::kParse);
    }
    plan.events.push_back(std::move(e));
  }
  const auto valid = plan.validate();
  if (!valid.has_value()) return valid.error();
  return plan;
}

FaultInjector::FaultInjector(FaultInjectorOptions options, std::uint64_t seed)
    : options_(std::move(options)), seed_(seed) {}

FaultPlan FaultInjector::generate() const {
  // Each kind draws from its own forked stream so adding, say, one more
  // arrival never shifts the cap-change times of an otherwise-equal plan.
  FaultPlan plan;
  const Rng root(seed_);
  const Seconds horizon = std::max(options_.horizon, 1e-3);

  {
    Rng rng = root.fork("arrivals");
    for (int i = 0; i < options_.arrivals; ++i) {
      FaultEvent e;
      e.kind = FaultKind::kArrival;
      e.time = rng.uniform(0.0, horizon);
      if (!options_.programs.empty()) {
        e.program = options_.programs[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(options_.programs.size()) - 1))];
      }
      e.input_scale =
          rng.uniform(options_.min_input_scale, options_.max_input_scale);
      e.seed = static_cast<std::uint64_t>(
          rng.uniform_int(1, std::numeric_limits<std::int64_t>::max() / 2));
      plan.events.push_back(std::move(e));
    }
  }
  {
    Rng rng = root.fork("cancellations");
    for (int i = 0; i < options_.cancellations; ++i) {
      FaultEvent e;
      e.kind = FaultKind::kCancel;
      e.time = rng.uniform(0.0, horizon);
      e.target = -1;  // resolved among eligible jobs at application time
      e.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
      plan.events.push_back(std::move(e));
    }
  }
  {
    Rng rng = root.fork("cap-changes");
    for (int i = 0; i < options_.cap_changes; ++i) {
      FaultEvent e;
      e.kind = FaultKind::kCapSet;
      e.time = rng.uniform(0.0, horizon);
      // Mostly moves within [low, high]; occasionally the cap disappears
      // entirely (thermal pressure lifted).
      const bool uncap = rng.chance(0.1);
      const Watts cap = rng.uniform(options_.cap_low, options_.cap_high);
      if (!uncap) e.cap = cap;
      plan.events.push_back(std::move(e));
    }
  }
  {
    Rng rng = root.fork("profile-noise");
    for (int i = 0; i < options_.noise_events; ++i) {
      FaultEvent e;
      e.kind = FaultKind::kProfileNoise;
      e.time = rng.uniform(0.0, horizon);
      e.target = -1;
      e.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
      e.factor = rng.uniform(options_.noise_low, options_.noise_high);
      plan.events.push_back(std::move(e));
    }
  }
  {
    Rng rng = root.fork("dropouts");
    for (int i = 0; i < options_.dropouts; ++i) {
      FaultEvent e;
      e.kind = FaultKind::kMeterDropout;
      e.time = rng.uniform(0.0, horizon);
      e.duration = rng.uniform(options_.dropout_min, options_.dropout_max);
      plan.events.push_back(std::move(e));
    }
  }

  plan.sort();
  return plan;
}

Expected<FaultPlan> generate_fault_plan_from_spec(const std::string& spec) {
  constexpr std::string_view kPrefix = "random:";
  if (spec.rfind(kPrefix, 0) != 0) {
    return fail("fault spec must start with 'random:'",
                ErrorCategory::kInvalidArgument);
  }
  FaultInjectorOptions options;
  std::uint64_t seed = 42;

  std::stringstream ss(spec.substr(kPrefix.size()));
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return fail("fault spec entry '" + item + "' is not key=value",
                  ErrorCategory::kParse);
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    try {
      if (key == "arrivals") {
        options.arrivals = std::stoi(value);
      } else if (key == "cancels") {
        options.cancellations = std::stoi(value);
      } else if (key == "caps") {
        options.cap_changes = std::stoi(value);
      } else if (key == "noise") {
        options.noise_events = std::stoi(value);
      } else if (key == "dropouts") {
        options.dropouts = std::stoi(value);
      } else if (key == "horizon") {
        options.horizon = std::stod(value);
      } else if (key == "seed") {
        seed = static_cast<std::uint64_t>(std::stoull(value));
      } else if (key == "cap-low") {
        options.cap_low = std::stod(value);
      } else if (key == "cap-high") {
        options.cap_high = std::stod(value);
      } else if (key == "programs") {
        // '+'-separated so the whole spec stays one comma-separated flag.
        options.programs.clear();
        std::stringstream ps(value);
        std::string program;
        while (std::getline(ps, program, '+')) {
          if (!program.empty()) options.programs.push_back(program);
        }
      } else {
        return fail("unknown fault spec key '" + key + "'",
                    ErrorCategory::kInvalidArgument);
      }
    } catch (const std::exception& ex) {
      return fail("fault spec value for '" + key + "': " + ex.what(),
                  ErrorCategory::kParse);
    }
  }
  if (options.horizon <= 0.0) {
    return fail("fault spec horizon must be positive",
                ErrorCategory::kInvalidArgument);
  }
  return FaultInjector(std::move(options), seed).generate();
}

}  // namespace corun::sim
