#include "trace_analysis.hpp"

#include <algorithm>
#include <cstdlib>
#include <cctype>
#include <stdexcept>

namespace perfbench {

namespace {

/// Just enough JSON to walk a trace-event document: objects, arrays,
/// strings, numbers and literals, with unknown members skipped.
class Reader {
 public:
  explicit Reader(const std::string& text) : s_(text) {}

  std::vector<SpanRecord> spans() {
    std::vector<SpanRecord> out;
    expect('{');
    if (peek() == '}') return out;
    for (;;) {
      const std::string key = string();
      expect(':');
      if (key == "traceEvents") {
        events(out);
      } else {
        skip_value();
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

 private:
  void events(std::vector<SpanRecord>& out) {
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      SpanRecord span;
      std::string ph;
      expect('{');
      if (peek() != '}') {
        for (;;) {
          const std::string key = string();
          expect(':');
          if (key == "name") {
            span.name = string();
          } else if (key == "cat") {
            span.cat = string();
          } else if (key == "ph") {
            ph = string();
          } else if (key == "ts") {
            span.start_us = number();
          } else if (key == "dur") {
            span.dur_us = number();
          } else if (key == "tid") {
            span.lane = static_cast<std::uint32_t>(number());
          } else {
            skip_value();
          }
          if (peek() != ',') break;
          ++pos_;
        }
      }
      expect('}');
      if (ph == "X") out.push_back(std::move(span));
      if (peek() != ',') break;
      ++pos_;
    }
    expect(']');
  }

  char peek() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
            s_[pos_] == '\t')) {
      ++pos_;
    }
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            c = static_cast<char>(std::strtol(s_.substr(pos_, 4).c_str(),
                                              nullptr, 16));
            pos_ += 4;
            break;
          default: c = e;  // '"', '\\', '/'
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }

  double number() {
    peek();
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) fail("expected a number");
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  void skip_value() {
    const char c = peek();
    if (c == '"') {
      (void)string();
    } else if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos_;
      if (peek() == close) {
        ++pos_;
        return;
      }
      for (;;) {
        if (c == '{') {
          (void)string();
          expect(':');
        }
        skip_value();
        if (peek() != ',') break;
        ++pos_;
      }
      expect(close);
    } else if (c == 't' || c == 'f' || c == 'n') {
      while (pos_ < s_.size() && std::isalpha(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    } else {
      (void)number();
    }
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("trace JSON: " + what + " at byte " +
                             std::to_string(pos_));
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// Exported timestamps carry three decimals of a microsecond; a child may
// appear to overhang its parent by that rounding.
constexpr double kSlackUs = 0.002;

// The TaskPool records one span per task; a task belongs to whatever layer
// fanned it out.
const std::string kPoolCategory = "task_pool";

bool contains(const SpanRecord& outer, const SpanRecord& inner) {
  return inner.start_us + kSlackUs >= outer.start_us &&
         inner.end_us() <= outer.end_us() + kSlackUs;
}

}  // namespace

std::vector<SpanRecord> parse_chrome_spans(const std::string& json) {
  return Reader(json).spans();
}

std::string layer_of(const std::string& cat) {
  if (cat.rfind("bench.", 0) == 0) return cat.substr(6);
  if (cat == "dynamic") return "runtime";
  return cat;
}

std::vector<double> self_times_us(const std::vector<SpanRecord>& spans) {
  const std::size_t n = spans.size();
  std::vector<long> parent(n, -1);

  // Nesting within each lane: sort by start (longer first on ties) and keep
  // a stack of open spans. Pool task spans are transparent.
  std::map<std::uint32_t, std::vector<std::size_t>> lanes;
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].cat != kPoolCategory) lanes[spans[i].lane].push_back(i);
  }
  for (auto& [lane, idx] : lanes) {
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      if (spans[a].start_us != spans[b].start_us) {
        return spans[a].start_us < spans[b].start_us;
      }
      return spans[a].dur_us > spans[b].dur_us;
    });
    std::vector<std::size_t> stack;
    for (const std::size_t i : idx) {
      while (!stack.empty() && !contains(spans[stack.back()], spans[i])) {
        stack.pop_back();
      }
      if (!stack.empty()) parent[i] = static_cast<long>(stack.back());
      stack.push_back(i);
    }
  }

  // Children on one thread never overlap, so their durations add up.
  std::vector<double> self(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].cat != kPoolCategory) self[i] = spans[i].dur_us;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (parent[i] >= 0) self[static_cast<std::size_t>(parent[i])] -= spans[i].dur_us;
  }
  for (double& s : self) s = std::max(0.0, s);
  return self;
}

std::map<std::string, double> layer_self_us(
    const std::vector<SpanRecord>& spans, const std::vector<double>& self_us,
    std::uint32_t lane, double window_start_us, double window_end_us) {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].lane != lane || spans[i].cat == kPoolCategory ||
        spans[i].start_us < window_start_us ||
        spans[i].start_us >= window_end_us) {
      continue;
    }
    out[layer_of(spans[i].cat)] += self_us[i];
  }
  return out;
}

}  // namespace perfbench
