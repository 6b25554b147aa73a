#include "common/flags.h"

#include <cstdlib>

namespace ptar {

StatusOr<FlagParser> FlagParser::Parse(int argc, const char* const* argv) {
  FlagParser parser;
  bool flags_done = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (flags_done || arg.rfind("--", 0) != 0) {
      parser.positional_.push_back(arg);
      continue;
    }
    if (arg == "--") {
      flags_done = true;
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos
                                               ? std::string::npos
                                               : eq - 2);
    if (name.empty()) {
      return Status::InvalidArgument("malformed flag: " + arg);
    }
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    auto [it, inserted] =
        parser.flags_.emplace(name, std::make_pair(value, false));
    if (!inserted) {
      return Status::InvalidArgument("flag repeated: --" + name);
    }
  }
  return parser;
}

bool FlagParser::Has(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return false;
  it->second.second = true;
  return true;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  it->second.second = true;
  return it->second.first;
}

StatusOr<std::int64_t> FlagParser::GetInt(const std::string& name,
                                          std::int64_t default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  it->second.second = true;
  const std::string& value = it->second.first;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end == nullptr || *end != '\0') {
    return Status::InvalidArgument("--" + name + " expects an integer, got '" +
                                   value + "'");
  }
  return static_cast<std::int64_t>(parsed);
}

StatusOr<double> FlagParser::GetDouble(const std::string& name,
                                       double default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  it->second.second = true;
  const std::string& value = it->second.first;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end == nullptr || *end != '\0') {
    return Status::InvalidArgument("--" + name + " expects a number, got '" +
                                   value + "'");
  }
  return parsed;
}

StatusOr<bool> FlagParser::GetBool(const std::string& name,
                                   bool default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  it->second.second = true;
  const std::string& value = it->second.first;
  if (value.empty() || value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  return Status::InvalidArgument("--" + name + " expects a boolean, got '" +
                                 value + "'");
}

std::vector<std::string> FlagParser::UnusedFlags() const {
  std::vector<std::string> unused;
  for (const auto& [name, state] : flags_) {
    if (!state.second) unused.push_back(name);
  }
  return unused;
}

}  // namespace ptar
