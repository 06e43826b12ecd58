// Tiny command-line flag parser for the benchmark and example binaries.
//
// Supports "--name=value" and "--name value" forms. Flags no getter reads
// are ignored silently, as are positional arguments, so a stale or
// misspelled flag leaves its setting at the default. This keeps the bench
// binaries dependency-free while allowing `--seed`, `--trials` etc.
// overrides.

#ifndef GRAPHPROMPTER_UTIL_FLAGS_H_
#define GRAPHPROMPTER_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>

namespace gp {

// Parses flags from argv and exposes typed getters with defaults.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;

  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace gp

#endif  // GRAPHPROMPTER_UTIL_FLAGS_H_
