// Minimal command-line argument parser for the tools/ binaries.
//
// Supports --key value and --key=value pairs plus bare boolean switches
// (--flag). Unknown options are collected so callers can reject typos with
// a helpful message instead of silently ignoring them.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mstc::util {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// True when --name was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// Raw value of --name; nullopt when absent or valueless.
  [[nodiscard]] std::optional<std::string> value(const std::string& name) const;

  /// Value of --name, or `fallback` when absent (a string option also when
  /// valueless). A numeric value that is missing, malformed or out of range
  /// throws std::invalid_argument naming the flag.
  [[nodiscard]] std::string get(const std::string& name,
                                std::string fallback) const;
  [[nodiscard]] double get(const std::string& name, double fallback) const;
  [[nodiscard]] long get(const std::string& name, long fallback) const;
  /// A count or size: like get(name, long), but a negative value throws too.
  [[nodiscard]] std::size_t get_count(const std::string& name,
                                      std::size_t fallback) const;
  [[nodiscard]] bool get_flag(const std::string& name) const {
    return has(name);
  }

  /// Positional (non --option) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Option names the caller never queried — call after all get()s to
  /// reject typos. (Querying marks a name as known.)
  [[nodiscard]] std::vector<std::string> unknown() const;

 private:
  std::map<std::string, std::string> options_;  // name -> value ("" if none)
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace mstc::util
