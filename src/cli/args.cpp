#include "cli/args.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace dlb::cli {

namespace {

bool is_option(const std::string& token) {
  return token.size() > 2 && token[0] == '-' && token[1] == '-';
}

template <typename T>
std::optional<T> whole_token(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

std::optional<std::uint64_t> to_count(std::string_view text) {
  return whole_token<std::uint64_t>(text);
}

std::optional<double> to_number(std::string_view text) {
  return whole_token<double>(text);
}

std::vector<std::string> split_list(std::string_view text, char sep) {
  std::vector<std::string> items;
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = std::min(text.find(sep, begin), text.size());
    items.emplace_back(text.substr(begin, end - begin));
    if (end == text.size()) return items;
    begin = end + 1;
  }
}

Args Args::parse(const std::vector<std::string>& tokens) {
  Args args;
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    const std::string& token = tokens[t];
    if (!is_option(token)) {
      args.positional_.push_back(token);
      continue;
    }
    const std::string key = token.substr(2);
    if (key.empty()) throw std::invalid_argument("empty option name");
    if (t + 1 < tokens.size() && !is_option(tokens[t + 1])) {
      args.options_[key] = tokens[++t];
    } else {
      args.options_[key] = "";  // boolean switch
    }
  }
  for (const auto& [key, value] : args.options_) {
    (void)value;
    args.touched_[key] = false;
  }
  return args;
}

bool Args::has(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return false;
  touched_[key] = true;
  return true;
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  touched_[key] = true;
  return it->second;
}

std::string Args::require(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end() || it->second.empty()) {
    throw std::invalid_argument("missing required option --" + key);
  }
  touched_[key] = true;
  return it->second;
}

std::uint64_t Args::get_count(const std::string& key,
                             std::uint64_t fallback) const {
  if (!has(key)) return fallback;
  const std::string text = get(key, "");
  if (const auto value = to_count(text)) return *value;
  if (text.starts_with('-') && to_count(text.substr(1))) {
    throw std::invalid_argument("option --" + key + " must be >= 0");
  }
  throw std::invalid_argument("option --" + key +
                              " expects an integer, got '" + text + "'");
}

double Args::get_double(const std::string& key, double fallback) const {
  if (!has(key)) return fallback;
  const std::string text = get(key, "");
  if (const auto value = to_number(text)) return *value;
  throw std::invalid_argument("option --" + key + " expects a number, got '" +
                              text + "'");
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> keys;
  for (const auto& [key, was_touched] : touched_) {
    if (!was_touched) keys.push_back(key);
  }
  return keys;
}

void Args::reject_unused() const {
  const std::vector<std::string> keys = unused();
  if (keys.empty()) return;
  std::string message = "unknown option(s):";
  for (const std::string& key : keys) message += " --" + key;
  throw std::invalid_argument(message);
}

}  // namespace dlb::cli
