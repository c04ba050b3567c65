#include "corun/common/csv.hpp"

#include <cstdio>
#include <ostream>

namespace corun {

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
}

std::string csv_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Expected<std::vector<std::vector<std::string>>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool cell_started = false;

  auto flush_cell = [&] {
    row.push_back(cell);
    cell.clear();
    cell_started = false;
  };
  auto flush_row = [&] {
    flush_cell();
    rows.push_back(row);
    row.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (cell_started && !cell.empty()) {
          return fail("quote inside unquoted cell at offset " + std::to_string(i), ErrorCategory::kParse);
        }
        in_quotes = true;
        cell_started = true;
        break;
      case ',':
        flush_cell();
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        flush_row();
        break;
      default:
        cell += c;
        cell_started = true;
        break;
    }
  }
  if (in_quotes) return fail("unterminated quoted cell", ErrorCategory::kParse);
  if (cell_started || !row.empty()) flush_row();
  return rows;
}

}  // namespace corun
