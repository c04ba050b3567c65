// CSV serialization for experiment artifacts (profiles, degradation grids,
// power traces) so results can be inspected or re-plotted outside the tools.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "corun/common/expected.hpp"

namespace corun {

/// Append-only CSV writer with RFC-4180-style quoting.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void write_row(const std::vector<std::string>& cells);

  /// Quotes a cell if it contains comma, quote, or newline.
  static std::string escape(const std::string& cell);

 private:
  std::ostream& out_;
};

/// Shortest-exact double rendering (%.17g), the CSV convention: a strtod
/// (std::stod) round trip returns the same bits.
[[nodiscard]] std::string csv_double(double v);

/// Parses CSV text; handles quoted cells and embedded commas/newlines.
/// Returns row-major cells, or an Error describing the malformed position.
Expected<std::vector<std::vector<std::string>>> parse_csv(const std::string& text);

}  // namespace corun
