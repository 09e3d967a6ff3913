#pragma once

// Minimal command-line argument parser shared by dlbsim, dlbd and the
// other tools: positional arguments plus `--name value` options and
// `--flag` switches, and the one number grammar every flag, list and
// command-channel argument is read with. Kept in the library so it is
// unit-testable.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dlb::cli {

/// The number grammar. The whole token must parse: a count is decimal
/// digits only (no sign, blank or `+`) that fit in 64 bits; a number is
/// what std::from_chars reads as a double. Anything else is nullopt, so
/// each caller shapes its own error.
[[nodiscard]] std::optional<std::uint64_t> to_count(std::string_view text);
[[nodiscard]] std::optional<double> to_number(std::string_view text);

/// Splits on every `sep`, keeping empty items ("a,,b" has three), so a
/// stray separator reaches the item parser as an error.
[[nodiscard]] std::vector<std::string> split_list(std::string_view text,
                                                  char sep = ',');

class Args {
 public:
  /// Parses tokens of the form: positionals, `--key value`, `--switch`.
  /// A token starting with `--` whose successor also starts with `--` (or
  /// is absent) is treated as a boolean switch.
  static Args parse(const std::vector<std::string>& tokens);

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters; throw std::invalid_argument on malformed values. Every
  /// integer flag is a count: "-1" is "option --KEY must be >= 0".
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::uint64_t get_count(const std::string& key,
                                        std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;

  /// Required variants: throw std::invalid_argument when missing.
  [[nodiscard]] std::string require(const std::string& key) const;

  /// Keys that were provided but never queried — used to reject typos.
  [[nodiscard]] std::vector<std::string> unused() const;
  /// Throws std::invalid_argument("unknown option(s): --a --b") when any
  /// key is unused; call it after every flag has been read.
  void reject_unused() const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
  mutable std::map<std::string, bool> touched_;
};

}  // namespace dlb::cli
