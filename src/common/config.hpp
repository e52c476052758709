#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// \file config.hpp
/// Tiny key=value configuration parser used by benches and examples to take
/// command-line overrides (e.g. `fig6_maxth_training episodes=4000 seed=7`).

namespace greennfv {

class Config {
 public:
  Config() = default;

  /// Parses `argv[1..argc)` entries of the form key=value. Entries without
  /// '=' are treated as boolean flags set to "1". Later keys override
  /// earlier ones.
  static Config from_args(int argc, const char* const* argv);

  /// Parses a whitespace/comma separated "k=v k2=v2" string.
  static Config from_string(std::string_view text);

  /// Parses line-oriented text (the scenario- and campaign-file format):
  /// one key=value per line, so values may hold spaces and commas. '#'
  /// starts a comment that runs to end of line; blank lines are skipped.
  static Config from_lines(std::string_view text);

  void set(const std::string& key, const std::string& value);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  /// Typed getters with defaults. Throw std::invalid_argument on parse
  /// failure — a malformed experiment parameter must not silently fall back.
  /// get_double reads through parse_double (finite values only), get_int
  /// through parse_count (bare digits that fit an int64).
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Rejects mistyped experiment keys: throws std::invalid_argument naming
  /// every key that is neither in `known_keys` nor an indexed-family match
  /// for one of `known_prefixes` (see family_index). A typo'd key must not
  /// silently select the fallback value.
  void check_known(const std::vector<std::string>& known_keys,
                   const std::vector<std::string>& known_prefixes = {}) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

// --- the number grammar every key value shares ------------------------------

/// A count or seed: bare decimal digits (no sign, no exponent), at most
/// `max`. A value that does not fit is an error, never a wrapped or
/// clamped one. Throws std::invalid_argument naming `key`.
[[nodiscard]] std::uint64_t parse_count(const std::string& key,
                                        const std::string& text,
                                        std::uint64_t max);

/// The whole of `text` in strtod syntax, as a finite double; nullopt for
/// junk, "nan", "inf" and text that overflows.
[[nodiscard]] std::optional<double> parse_finite(const std::string& text);

/// parse_finite, throwing std::invalid_argument naming `key` on failure.
[[nodiscard]] double parse_double(const std::string& key,
                                  const std::string& text);

/// The index of an indexed-family key: `prefix` followed by a bare index
/// (flow0, chain12). nullopt for anything else — "flow", "flowz" and
/// "flow_rate" are not family keys. An index too large for size_t reads
/// as SIZE_MAX.
[[nodiscard]] std::optional<std::size_t> family_index(std::string_view key,
                                                      std::string_view prefix);

}  // namespace greennfv
