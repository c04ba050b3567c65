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

#include "corun/common/expected.hpp"

namespace corun {

/// Thrown by Flags::get_double/get_int when a flag's value is not a number
/// (see parse_number); what() names the flag. The tools catch it around
/// main and report a usage error.
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
  /// The flag's value read whole as a number, or `fallback` when the flag
  /// is absent. Throws FlagError when the value is not a number.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
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
