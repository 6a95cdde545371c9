#include "util/args.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace mstc::util {

namespace {

[[noreturn]] void reject(const std::string& name, const char* expected,
                         const std::string& raw) {
  throw std::invalid_argument("--" + name + ": expected " + expected +
                              ", got '" + raw + "'");
}

/// The whole of `text` as a base-10 long; nullopt when malformed or out of
/// range.
std::optional<long> parse_long(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return parsed;
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t equals = body.find('=');
    if (equals != std::string::npos) {
      options_[body.substr(0, equals)] = body.substr(equals + 1);
      continue;
    }
    // "--key value" when the next token is not itself an option;
    // otherwise a bare switch.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  queried_[name] = true;
  return options_.contains(name);
}

std::optional<std::string> ArgParser::value(const std::string& name) const {
  queried_[name] = true;
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return std::nullopt;
  return it->second;
}

std::string ArgParser::get(const std::string& name,
                           std::string fallback) const {
  return value(name).value_or(std::move(fallback));
}

double ArgParser::get(const std::string& name, double fallback) const {
  if (!has(name)) return fallback;
  const std::string raw = value(name).value_or("");
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(raw.c_str(), &end);
  if (end != raw.c_str() && *end == '\0' && errno != ERANGE) return parsed;
  reject(name, "a number", raw);
}

long ArgParser::get(const std::string& name, long fallback) const {
  if (!has(name)) return fallback;
  const std::string raw = value(name).value_or("");
  if (const auto parsed = parse_long(raw)) return *parsed;
  reject(name, "an integer", raw);
}

std::size_t ArgParser::get_count(const std::string& name,
                                 std::size_t fallback) const {
  if (!has(name)) return fallback;
  const std::string raw = value(name).value_or("");
  const auto parsed = parse_long(raw);
  if (parsed && *parsed >= 0) return static_cast<std::size_t>(*parsed);
  reject(name, "a non-negative integer", raw);
}

std::vector<std::string> ArgParser::unknown() const {
  std::vector<std::string> names;
  for (const auto& [name, value] : options_) {
    if (!queried_.contains(name)) names.push_back(name);
  }
  return names;
}

}  // namespace mstc::util
