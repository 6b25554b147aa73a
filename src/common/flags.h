// Minimal command-line flag parsing for the tools and examples.
//
// Supports --key=value plus bare boolean switches (--verbose); the
// unambiguous '=' form is required for values. Positional arguments are
// collected in order. No global registry — a parser instance is explicit
// state (Google style: no static initialization surprises).

#ifndef PTAR_COMMON_FLAGS_H_
#define PTAR_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace ptar {

class FlagParser {
 public:
  /// Parses argv[1..) into flags and positionals. Returns an error on
  /// malformed input (e.g. "--=x") or a repeated flag. "--" ends flag
  /// parsing; everything after it is positional.
  static StatusOr<FlagParser> Parse(int argc, const char* const* argv);

  /// Whether the flag appeared at all.
  bool Has(const std::string& name) const;

  /// Typed accessors with defaults. Type errors (e.g. --count=abc) are
  /// reported via Status.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  StatusOr<std::int64_t> GetInt(const std::string& name,
                                std::int64_t default_value) const;
  StatusOr<double> GetDouble(const std::string& name,
                             double default_value) const;
  /// Bare switch or explicit --flag=true/false/1/0.
  StatusOr<bool> GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were provided but never read by any accessor; lets tools
  /// reject typos ("--vehicels").
  std::vector<std::string> UnusedFlags() const;

 private:
  FlagParser() = default;

  mutable std::map<std::string, std::pair<std::string, bool>> flags_;
  std::vector<std::string> positional_;
};

}  // namespace ptar

#endif  // PTAR_COMMON_FLAGS_H_
