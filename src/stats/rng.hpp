#pragma once

// Deterministic, cross-platform random number generation.
//
// Every stochastic component of the library (instance generators, peer
// selection, Monte-Carlo replication) draws from dlb::stats::Rng so that an
// experiment is fully reproducible from a single 64-bit seed, independent of
// the standard library implementation. The generator is xoshiro256** seeded
// through splitmix64, the combination recommended by Blackman & Vigna.

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace dlb::stats {

/// splitmix64 step: used for seeding and for hashing ids into streams.
[[nodiscard]] constexpr std::uint64_t splitmix64(
    std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** pseudo-random generator.
///
/// Satisfies std::uniform_random_bit_generator, so it can be plugged into
/// <random> distributions; the helpers below avoid <random> entirely for
/// cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state by iterating splitmix64 on `seed`.
  explicit constexpr Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  [[nodiscard]] constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection
  /// method: unbiased and branch-cheap. bound must be > 0. Inline: the
  /// shuffles, selectors and placement draw it millions of times a run.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
    std::uint64_t x = (*this)();
    __uint128_t m =
        static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli draw with probability p of returning true.
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard normal via Marsaglia polar method (deterministic given state).
  [[nodiscard]] double normal() noexcept;

  /// Exponential with rate lambda (> 0), by inverse CDF: 1 - uniform() is
  /// in (0, 1], so the log is finite.
  [[nodiscard]] double exponential(double lambda) noexcept {
    return -std::log(1.0 - uniform()) / lambda;
  }

  /// The four xoshiro256** state words, for checkpointing. A generator
  /// rebuilt with from_state() continues the exact draw sequence.
  using State = std::array<std::uint64_t, 4>;
  [[nodiscard]] constexpr State state() const noexcept { return state_; }
  [[nodiscard]] static constexpr Rng from_state(const State& state) noexcept {
    Rng rng;
    rng.state_ = state;
    return rng;
  }

  /// Derives an independent child stream. Stream `i` of seed `s` is
  /// reproducible regardless of how many numbers the parent generated.
  [[nodiscard]] static Rng stream(std::uint64_t seed,
                                  std::uint64_t index) noexcept {
    std::uint64_t sm = seed;
    const std::uint64_t base = splitmix64(sm);
    std::uint64_t mix = base ^ (0x94d049bb133111ebULL * (index + 1));
    return Rng(splitmix64(mix));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Fisher-Yates shuffle of [first, last) using the library Rng.
template <typename RandomIt>
void shuffle(RandomIt first, RandomIt last, Rng& rng) {
  using std::swap;
  const auto n = static_cast<std::uint64_t>(last - first);
  for (std::uint64_t i = n; i > 1; --i) {
    swap(first[i - 1], first[rng.below(i)]);
  }
}

}  // namespace dlb::stats
