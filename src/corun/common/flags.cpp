#include "corun/common/flags.hpp"

namespace corun {

Expected<Flags> Flags::parse(int argc, const char* const* argv,
                             const std::set<std::string>& known,
                             const std::set<std::string>& boolean) {
  Flags flags;
  if (argc > 0) flags.program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    if (!known.count(name) && !boolean.count(name)) {
      return fail("unknown flag --" + name, ErrorCategory::kInvalidArgument);
    }
    if (boolean.count(name)) {
      if (has_value) return fail("flag --" + name + " takes no value", ErrorCategory::kInvalidArgument);
      flags.values_[name] = "1";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) return fail("flag --" + name + " needs a value", ErrorCategory::kInvalidArgument);
      value = argv[++i];
    }
    flags.values_[name] = value;
  }
  return flags;
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

}  // namespace corun
