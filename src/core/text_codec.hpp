#pragma once

// The line-oriented codec of the text formats: dlb-instance and
// dlb-assignment (core/instance_io), dlb-checkpoint, dlb-open-checkpoint,
// dlb-churn-plan and dlb-arrival-plan (src/dist). Every loader reads
// through one TextReader, so all of them raise
// std::runtime_error("<Type>::load: <why>") and share one defence against
// hostile bytes. Each count is checked against its bound before anything
// is allocated, and every row grows as it is read (reserving at most
// kReserveCap entries up front), so memory follows the bytes that are
// actually present, not the count a header claims. Every unsigned integer
// (a `value`, a `next` token, an `id` or an `id_row` entry) must be a plain
// decimal that fits its type: a sign, trailing bytes or an overflow raises
// an error naming the field, never wraps ("-1" is not 2^64 - 1).
//
// Doubles travel as their IEEE-754 bit patterns in decimal: formatted
// decimal round-trips are not guaranteed to be exact, bit patterns are.
// (dlb-instance predates the codec and keeps max_digits10 decimals.)

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace dlb::codec {

inline constexpr std::size_t kReserveCap = std::size_t{1} << 16;

[[nodiscard]] inline std::uint64_t bits_of(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v);
}
[[nodiscard]] inline double double_of(std::uint64_t bits) noexcept {
  return std::bit_cast<double>(bits);
}

/// Writes "<name> <size>" and then the row on one line (no line when
/// empty); `put` writes one entry.
template <typename T, typename Put>
void write_row(std::ostream& out, const char* name, const std::vector<T>& row,
               Put put) {
  out << name << ' ' << row.size() << "\n";
  for (std::size_t k = 0; k < row.size(); ++k) {
    if (k != 0) out << ' ';
    put(row[k]);
  }
  if (!row.empty()) out << "\n";
}

/// Integers (bytes print as numbers).
template <typename T>
void write_row(std::ostream& out, const char* name, const std::vector<T>& row) {
  write_row(out, name, row, [&](T v) { out << +v; });
}

/// Doubles as bit patterns.
inline void write_bits_row(std::ostream& out, const char* name,
                           const std::vector<double>& row) {
  write_row(out, name, row, [&](double v) { out << bits_of(v); });
}

/// Ids where `sentinel` renders as '-'.
template <typename T>
void write_id_row(std::ostream& out, const char* name,
                  const std::vector<T>& row, T sentinel) {
  write_row(out, name, row, [&](T v) {
    if (v == sentinel) {
      out << '-';
    } else {
      out << v;
    }
  });
}

class TextReader {
 public:
  /// `type` prefixes every error ("Checkpoint" -> "Checkpoint::load: ").
  TextReader(std::istream& in, const char* type) : in_(in), type_(type) {}

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(std::string(type_) + "::load: " + why);
  }

  /// Consumes the "<magic> v1" header line.
  void header(const char* magic) {
    std::string got;
    std::string version;
    if (!(in_ >> got >> version) || got != magic || version != "v1") {
      fail(std::string("expected header \"") + magic + " v1\"");
    }
  }

  void key(const char* name) {
    std::string token;
    if (!(in_ >> token) || token != name) {
      fail(std::string("expected \"") + name + "\" (got \"" + token + "\")");
    }
  }

  /// "<name> <value>".
  template <typename T>
  T value(const char* name) {
    key(name);
    T v{};
    bool ok = false;
    if constexpr (kDecimal<T>) {
      std::string token;
      ok = in_ >> token && decimal(token, v);
    } else {
      ok = static_cast<bool>(in_ >> v);
    }
    if (!ok) fail(std::string("bad value for ") + name);
    return v;
  }

  /// "<name> <bit pattern>".
  double bits(const char* name) {
    return double_of(value<std::uint64_t>(name));
  }

  /// The next bare token.
  template <typename T>
  T next(const char* what) {
    if constexpr (kDecimal<T>) {
      return parse_id<T>(next<std::string>(what), std::nullopt, what);
    } else {
      T v{};
      if (!(in_ >> v)) fail(std::string("truncated ") + what);
      return v;
    }
  }

  /// "<name> <count>" where the count must equal `bound` (exact) or not
  /// exceed it.
  std::size_t count(const char* name, std::size_t bound, bool exact) {
    const auto n = value<std::size_t>(name);
    if (exact ? n != bound : n > bound) {
      fail(std::string(name) + " count " + std::to_string(n) +
           (exact ? " must equal " : " exceeds ") + std::to_string(bound));
    }
    return n;
  }

  /// `n` entries, each read by `entry()`.
  template <typename T, typename Entry>
  std::vector<T> row(std::size_t n, Entry entry) {
    std::vector<T> out;
    out.reserve(std::min(n, kReserveCap));
    for (std::size_t k = 0; k < n; ++k) out.push_back(entry());
    return out;
  }

  /// `n` bit-pattern doubles.
  std::vector<double> bits_row(std::size_t n, const char* what) {
    return row<double>(n, [&] { return double_of(next<std::uint64_t>(what)); });
  }

  /// The next token as an id below `limit`.
  template <typename T>
  T id(std::size_t limit, const char* what) {
    return parse_id<T>(next<std::string>(what), limit, what);
  }

  /// `n` ids, each a number below `limit` or, when a sentinel is given,
  /// '-' (read as the sentinel).
  template <typename T>
  std::vector<T> id_row(std::size_t n, std::size_t limit, const char* what,
                        std::optional<T> sentinel = std::nullopt) {
    return row<T>(n, [&] {
      const auto token = next<std::string>(what);
      if (sentinel.has_value() && token == "-") return *sentinel;
      return parse_id<T>(token, limit, what);
    });
  }

 private:
  /// Unsigned integers other than bool go through `decimal`.
  template <typename T>
  static constexpr bool kDecimal =
      std::is_unsigned_v<T> && !std::is_same_v<T, bool>;

  /// Digits only, and the value fits T: a sign, a space, trailing bytes or
  /// an overflow fails.
  template <typename T>
  [[nodiscard]] static bool decimal(const std::string& token, T& v) {
    const char* end = token.data() + token.size();
    const auto [stop, error] = std::from_chars(token.data(), end, v);
    return error == std::errc() && stop == end;
  }

  /// A decimal number of type T, below `limit` when one is given.
  template <typename T>
  T parse_id(const std::string& token, std::optional<std::size_t> limit,
             const char* what) const {
    T v{};
    if (!decimal(token, v) || (limit.has_value() && v >= *limit)) {
      fail(std::string("bad ") + what + " entry \"" + token + "\"");
    }
    return v;
  }

  std::istream& in_;
  const char* type_;
};

/// Doc::save into a file; "<type>::save_file: cannot open <path>".
template <typename Doc>
void save_file(const Doc& doc, const std::string& path, const char* type) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error(std::string(type) +
                             "::save_file: cannot open " + path);
  }
  doc.save(out);
}

/// Doc::load from a file; "<type>::load_file: cannot open <path>".
template <typename Doc>
Doc load_file(const std::string& path, const char* type) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error(std::string(type) +
                             "::load_file: cannot open " + path);
  }
  return Doc::load(in);
}

}  // namespace dlb::codec
