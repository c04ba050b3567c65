// Text in and out for every format the tools exchange: the CSV writer, and
// the one strict reader each format reads through — whole-field numbers,
// CSV tables checked against their writer's column list, and
// `<prefix>key=value,...` spec strings. Valid input reads back to the bits
// that were written; anything else fails with ErrorCategory::kParse.
#pragma once

#include <charconv>
#include <cmath>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "corun/common/expected.hpp"

namespace corun {

/// Append-only CSV writer with RFC-4180-style quoting.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void write_row(const std::vector<std::string>& cells);
  /// Writes a format's column list as its header row.
  void write_row(std::span<const std::string_view> columns);

  /// Quotes a cell if it contains comma, quote, or newline.
  static std::string escape(const std::string& cell);

 private:
  std::ostream& out_;
};

/// Shortest-exact double rendering (%.17g), the CSV convention:
/// parse_number<double> returns the same bits.
[[nodiscard]] std::string csv_double(double v);

/// Parses CSV text; handles quoted cells and embedded commas/newlines.
/// Returns row-major cells, or an Error describing the malformed position.
Expected<std::vector<std::vector<std::string>>> parse_csv(const std::string& text);

/// Reads all of `text` as a T. No text may come before or after the number,
/// not even a space or a '+'; a double must be finite (no nan, no inf), an
/// integer must fit T, and an unsigned T takes no sign. std::from_chars
/// reads any number csv_double or std::to_string writes to the bits strtod
/// would, without a locale or an allocation.
template <typename T>
[[nodiscard]] Expected<T> parse_number(std::string_view text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (ok) return value;
  return fail("'" + std::string(text) + "' is not " +
                  (std::is_floating_point_v<T> ? "a finite number"
                   : std::is_signed_v<T>       ? "an integer in range"
                                           : "an unsigned integer in range"),
              ErrorCategory::kParse);
}

/// One record of named text fields — a CSV table row under its header, or
/// a spec string's values under the spec's keys — read into typed values.
/// Each read converts one whole field with parse_number and keeps the
/// first failure, the way a stream keeps its failbit: a format's reader
/// takes every field it needs, then checks error() once.
class Record {
 public:
  Record(std::span<const std::string_view> names,
         std::vector<std::string> fields, std::string where)
      : names_(names), fields_(std::move(fields)), where_(std::move(where)) {}

  /// The field called `name`, which must be one of the record's names.
  [[nodiscard]] const std::string& operator[](std::string_view name) const;
  [[nodiscard]] const std::vector<std::string>& fields() const noexcept {
    return fields_;
  }
  /// The record in messages: "fault plan CSV row 3", "fault spec".
  [[nodiscard]] const std::string& where() const noexcept { return where_; }
  [[nodiscard]] const std::optional<Error>& error() const noexcept {
    return error_;
  }

  /// Reads field `name` whole into `out`; after a failure, does nothing.
  template <typename T>
  void read(std::string_view name, T& out) {
    if (error_) return;
    const Expected<T> value = parse_number<T>((*this)[name]);
    if (!value) return fail_field(name, value.error().message);
    out = value.value();
  }
  /// As read(), but a "-" field keeps `out`: the format's default.
  template <typename T>
  void read_or_keep(std::string_view name, T& out) {
    if ((*this)[name] != "-") read(name, out);
  }
  /// Records that field `name` failed because `why`, unless a failure is
  /// kept already.
  void fail_field(std::string_view name, std::string_view why);

 private:
  std::span<const std::string_view> names_;
  std::vector<std::string> fields_;
  std::string where_;
  std::optional<Error> error_;
};

/// Reads a CSV table. Its header row must equal `columns`, the list the
/// format's writer writes, and every other row must have exactly that many
/// cells. Returns the rows after the header, named by `columns` (which
/// must outlive them); `what` names the format in messages.
[[nodiscard]] Expected<std::vector<Record>> read_csv_table(
    const std::string& text, std::span<const std::string_view> columns,
    std::string_view what);

/// Reads a `<prefix>key=value,...` spec string, such as the event
/// generators' `random:arrivals=2,seed=7`, into a record named by `keys`
/// (which must outlive it). Empty items are skipped, a repeated key keeps
/// its last value, and a key not given reads as "-". Fails when `text`
/// does not start with `prefix`, or an item is not key=value or names no
/// key in `keys`.
[[nodiscard]] Expected<Record> read_spec(std::string_view text,
                                         std::string_view prefix,
                                         std::span<const std::string_view> keys,
                                         std::string_view what);

}  // namespace corun
