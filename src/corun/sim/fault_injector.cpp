#include "corun/sim/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>

#include "corun/common/csv.hpp"
#include "corun/common/rng.hpp"

namespace corun::sim {

namespace {

constexpr std::string_view kCsvColumns[] = {
    "time", "kind",   "program", "input_scale", "seed",
    "target", "cap", "factor",  "duration"};

constexpr std::string_view kSpecKeys[] = {
    "arrivals", "cancels", "caps",    "noise",    "dropouts",
    "horizon",  "seed",    "cap-low", "cap-high", "programs"};

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
    if (!(e.time >= 0.0)) {
      return fail(where + ": time must be >= 0",
                  ErrorCategory::kInvalidArgument);
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
        if (!(e.input_scale > 0.0)) {
          return fail(where + ": non-positive input scale",
                      ErrorCategory::kInvalidArgument);
        }
        break;
      case FaultKind::kCapSet:
        if (e.cap && !(*e.cap > 0.0)) {
          return fail(where + ": non-positive cap",
                      ErrorCategory::kInvalidArgument);
        }
        break;
      case FaultKind::kProfileNoise:
        if (!(e.factor > 0.0)) {
          return fail(where + ": non-positive noise factor",
                      ErrorCategory::kInvalidArgument);
        }
        break;
      case FaultKind::kMeterDropout:
        if (!(e.duration > 0.0)) {
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
  writer.write_row(kCsvColumns);
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
  auto rows = read_csv_table(text, kCsvColumns, "fault plan CSV");
  if (!rows.has_value()) return rows.error();
  FaultPlan plan;
  for (Record& row : std::move(rows).value()) {
    FaultEvent e;
    const auto kind = parse_fault_kind(row["kind"]);
    if (!kind.has_value()) return kind.error();
    e.kind = kind.value();
    // "-" in any optional column keeps the field's default, so
    // hand-authored plans only need to fill the columns their kind uses.
    row.read("time", e.time);
    if (row["program"] != "-") e.program = row["program"];
    row.read_or_keep("input_scale", e.input_scale);
    row.read_or_keep("seed", e.seed);
    row.read_or_keep("target", e.target);
    if (row["cap"] != "-") row.read("cap", e.cap.emplace());
    row.read_or_keep("factor", e.factor);
    row.read_or_keep("duration", e.duration);
    if (row.error()) return *row.error();
    plan.events.push_back(std::move(e));
  }
  const auto valid = plan.validate();
  if (!valid.has_value()) return valid.error();
  return plan;
}

Expected<bool> check_generator_ranges(std::initializer_list<int> counts,
                                      Seconds horizon, Watts cap_low,
                                      Watts cap_high) {
  if (std::any_of(counts.begin(), counts.end(), [](int n) { return n < 0; })) {
    return fail("event counts must be >= 0", ErrorCategory::kParse);
  }
  if (!(std::isfinite(horizon) && horizon > 0.0)) {
    return fail("the horizon must be finite and > 0", ErrorCategory::kParse);
  }
  if (!(cap_low > 0.0 && cap_low <= cap_high)) {
    return fail("the caps need 0 < low <= high", ErrorCategory::kParse);
  }
  return true;
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
  auto parsed = read_spec(spec, "random:", kSpecKeys, "fault spec");
  if (!parsed.has_value()) return parsed.error();
  Record items = std::move(parsed).value();
  FaultInjectorOptions options;
  std::uint64_t seed = 42;
  items.read_or_keep("arrivals", options.arrivals);
  items.read_or_keep("cancels", options.cancellations);
  items.read_or_keep("caps", options.cap_changes);
  items.read_or_keep("noise", options.noise_events);
  items.read_or_keep("dropouts", options.dropouts);
  items.read_or_keep("horizon", options.horizon);
  items.read_or_keep("seed", seed);
  items.read_or_keep("cap-low", options.cap_low);
  items.read_or_keep("cap-high", options.cap_high);
  if (items.error()) return *items.error();
  if (items["programs"] != "-") {
    // '+'-separated so the whole spec stays one comma-separated flag.
    options.programs.clear();
    std::stringstream ps(items["programs"]);
    std::string program;
    while (std::getline(ps, program, '+')) {
      if (!program.empty()) options.programs.push_back(program);
    }
  }
  const auto ranges = check_generator_ranges(
      {options.arrivals, options.cancellations, options.cap_changes,
       options.noise_events, options.dropouts},
      options.horizon, options.cap_low, options.cap_high);
  if (!ranges.has_value()) {
    return fail("fault spec: " + ranges.error().message, ErrorCategory::kParse);
  }
  FaultPlan plan = FaultInjector(std::move(options), seed).generate();
  const auto valid = plan.validate();
  if (!valid.has_value()) return valid.error();
  return plan;
}

}  // namespace corun::sim
