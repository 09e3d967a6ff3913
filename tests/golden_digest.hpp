#pragma once

// FNV-1a digest for the golden cross-commit pins (EngineGolden, CliGolden,
// the daemon reply pins): the tests fold every byte a run emits into one
// 64-bit constant, so a digest changes only when the output does.

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace dlb::golden {

class Digest {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) mix(static_cast<unsigned char>(c));
    mix(0xFF);  // Field separator: "ab"+"c" and "a"+"bc" differ.
  }
  void add(std::uint64_t value) { add(std::to_string(value)); }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void mix(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001B3ULL;
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

}  // namespace dlb::golden
