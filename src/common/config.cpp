#include "common/config.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "common/string_util.hpp"

namespace greennfv {

namespace {

void parse_token(Config& config, std::string_view token) {
  token = trim(token);
  if (token.empty()) return;
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos) {
    config.set(std::string(token), "1");
    return;
  }
  config.set(std::string(trim(token.substr(0, eq))),
             std::string(trim(token.substr(eq + 1))));
}

}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config config;
  for (int i = 1; i < argc; ++i) parse_token(config, argv[i]);
  return config;
}

Config Config::from_string(std::string_view text) {
  Config config;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ' ' || text[i] == ',' ||
        text[i] == '\n' || text[i] == '\t') {
      if (i > start) parse_token(config, text.substr(start, i - start));
      start = i + 1;
    }
  }
  return config;
}

Config Config::from_lines(std::string_view text) {
  Config config;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = std::min(text.find('\n', start), text.size());
    const std::string_view line = text.substr(start, end - start);
    parse_token(config, line.substr(0, line.find('#')));
    start = end + 1;
  }
  return config;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return get(key).value_or(fallback);
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto value = get(key);
  return value ? parse_double(key, *value) : fallback;
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  return static_cast<std::int64_t>(
      parse_count(key, *value, std::numeric_limits<std::int64_t>::max()));
}

void Config::check_known(
    const std::vector<std::string>& known_keys,
    const std::vector<std::string>& known_prefixes) const {
  std::string unknown;
  for (const auto& [key, value] : values_) {
    bool found = std::find(known_keys.begin(), known_keys.end(), key) !=
                 known_keys.end();
    for (const auto& prefix : known_prefixes)
      found = found || family_index(key, prefix).has_value();
    if (!found) {
      if (!unknown.empty()) unknown += ", ";
      unknown += key;
    }
  }
  if (!unknown.empty()) {
    throw std::invalid_argument("Config: unknown key(s): " + unknown +
                                " (pass help=1 to list accepted keys)");
  }
}

std::uint64_t parse_count(const std::string& key, const std::string& text,
                          std::uint64_t max) {
  std::uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (end != last || error != std::errc() || value > max) {
    throw std::invalid_argument(
        format("%s must be an integer in [0, %llu], got '%s'", key.c_str(),
               static_cast<unsigned long long>(max), text.c_str()));
  }
  return value;
}

std::optional<double> parse_finite(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value))
    return std::nullopt;
  return value;
}

double parse_double(const std::string& key, const std::string& text) {
  const auto value = parse_finite(text);
  if (!value) {
    throw std::invalid_argument(key + " must be a finite number, got '" +
                                text + "'");
  }
  return *value;
}

std::optional<std::size_t> family_index(std::string_view key,
                                        std::string_view prefix) {
  if (key.size() <= prefix.size() || !key.starts_with(prefix))
    return std::nullopt;
  const char* first = key.data() + prefix.size();
  const char* last = key.data() + key.size();
  std::size_t index = 0;
  const auto [end, error] = std::from_chars(first, last, index);
  if (end != last) return std::nullopt;
  return error == std::errc() ? index : SIZE_MAX;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  if (*value == "1" || *value == "true" || *value == "yes" || *value == "on")
    return true;
  if (*value == "0" || *value == "false" || *value == "no" || *value == "off")
    return false;
  throw std::invalid_argument("Config: key '" + key +
                              "' is not a boolean: " + *value);
}

}  // namespace greennfv
