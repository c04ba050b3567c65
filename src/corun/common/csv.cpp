#include "corun/common/csv.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "corun/common/check.hpp"

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

void CsvWriter::write_row(std::span<const std::string_view> columns) {
  write_row(std::vector<std::string>(columns.begin(), columns.end()));
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

const std::string& Record::operator[](std::string_view name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  CORUN_CHECK_MSG(it != names_.end(),
                  where_ + " has no field " + std::string(name));
  return fields_[static_cast<std::size_t>(it - names_.begin())];
}

void Record::fail_field(std::string_view name, std::string_view why) {
  if (error_) return;
  error_ = fail(where_ + ": " + std::string(name) + ": " + std::string(why),
                ErrorCategory::kParse);
}

Expected<std::vector<Record>> read_csv_table(
    const std::string& text, std::span<const std::string_view> columns,
    std::string_view what) {
  auto parsed = parse_csv(text);
  if (!parsed.has_value()) return parsed.error();
  std::vector<std::vector<std::string>> rows = std::move(parsed).value();
  if (rows.empty() || !std::equal(rows[0].begin(), rows[0].end(),
                                  columns.begin(), columns.end())) {
    std::string header;
    for (const std::string_view column : columns) {
      header += (header.empty() ? "" : ",") + std::string(column);
    }
    return fail(std::string(what) + ": the header row must be " + header,
                ErrorCategory::kParse);
  }
  std::vector<Record> records;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const std::string where =
        std::string(what) + " row " + std::to_string(i + 1);
    if (rows[i].size() != columns.size()) {
      return fail(where + ": " + std::to_string(rows[i].size()) +
                      " cells, not " + std::to_string(columns.size()),
                  ErrorCategory::kParse);
    }
    records.emplace_back(columns, std::move(rows[i]), where);
  }
  return records;
}

Expected<Record> read_spec(std::string_view text, std::string_view prefix,
                           std::span<const std::string_view> keys,
                           std::string_view what) {
  const std::string where(what);
  if (!text.starts_with(prefix)) {
    return fail(where + " must start with '" + std::string(prefix) + "'",
                ErrorCategory::kParse);
  }
  std::vector<std::string> values(keys.size(), "-");
  text.remove_prefix(prefix.size());
  while (!text.empty()) {
    const std::string_view item = text.substr(0, text.find(','));
    text.remove_prefix(std::min(text.size(), item.size() + 1));
    if (item.empty()) continue;
    const std::string_view key = item.substr(0, item.find('='));
    if (key.size() == item.size()) {
      return fail(where + ": '" + std::string(item) + "' is not key=value",
                  ErrorCategory::kParse);
    }
    const auto known = std::find(keys.begin(), keys.end(), key);
    if (known == keys.end()) {
      return fail(where + ": unknown key '" + std::string(key) + "'",
                  ErrorCategory::kParse);
    }
    values[static_cast<std::size_t>(known - keys.begin())] =
        item.substr(key.size() + 1);
  }
  return Record(keys, std::move(values), where);
}

}  // namespace corun
