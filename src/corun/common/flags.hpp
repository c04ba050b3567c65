// Minimal command-line flag parsing for the tools/ binaries.
//
// Supports `--name value`, `--name=value`, boolean `--name`, and positional
// arguments; unknown flags are an error so typos fail loudly, and so is a
// numeric flag whose value does not read whole as a number.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "corun/common/csv.hpp"
#include "corun/common/expected.hpp"

namespace corun {

/// Thrown when a flag's value is malformed or out of range (see
/// Flags::number); what() names the flag. The tools catch it around their
/// body and report a usage error.
class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Flags {
 public:
  /// Parses argv. `known` lists accepted flag names (without dashes);
  /// names in `boolean` take no value.
  static Expected<Flags> parse(int argc, const char* const* argv,
                               const std::set<std::string>& known,
                               const std::set<std::string>& boolean = {});

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// The flag's value read whole as a T by parse_number (so an unsigned T,
  /// a count or a seed, takes no sign), or `fallback` when the flag is
  /// absent. Throws FlagError naming the flag when the value is not a T.
  template <typename T>
  [[nodiscard]] T number(const std::string& name, T fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    const Expected<T> value = parse_number<T>(it->second);
    if (!value) throw FlagError("--" + name + ": " + value.error().message);
    return value.value();
  }
  /// number() for a flag whose value must be > 0.
  template <typename T>
  [[nodiscard]] T positive(const std::string& name, T fallback) const {
    const T value = number(name, fallback);
    if (!(value > T{0})) throw FlagError("--" + name + " must be > 0");
    return value;
  }
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace corun
