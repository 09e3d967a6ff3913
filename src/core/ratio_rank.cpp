#include "core/ratio_rank.hpp"

#include <algorithm>
#include <array>
#include <cfloat>
#include <new>
#include <utility>

#include "core/instance.hpp"

namespace dlb {

namespace {

/// Cross products must stay in [kMinProduct, kMaxProduct]: normal, finite,
/// and with room for the guard's own multiplication by kGuardGap.
constexpr double kMaxProduct = DBL_MAX / 4;
constexpr double kMinProduct = DBL_MIN * 4;
/// 1 + 2^-49: computed cross products at least this far apart leave a true
/// ratio gap above 2^-50 (three roundings of at most 2^-53 each).
constexpr double kGuardGap = 1.0 + 0x1p-49;

/// Radix digits of the build sort: three 11-bit passes cover a u32 key.
constexpr unsigned kDigitBits = 11;
constexpr unsigned kDigits = 3;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;

std::uint32_t* words(const core::numa::Slab& slab) noexcept {
  return reinterpret_cast<std::uint32_t*>(slab.get());
}

/// A u32 array of n words, always mapped from the kernel: ranks are rebuilt
/// with every instance, and heap blocks below numa::kMapThreshold would
/// leave fragments that later small allocations pin. Untouched pages of
/// the rounded-up mapping cost no memory.
core::numa::Slab alloc_words(std::size_t n) {
  return core::numa::alloc_slab(
      std::max(n * sizeof(std::uint32_t), core::numa::kMapThreshold));
}

}  // namespace

RatioRank& RatioRank::operator=(const RatioRank& other) noexcept {
  if (this != &other) *this = RatioRank();
  return *this;
}

RatioRank::RatioRank(RatioRank&& other) noexcept { *this = std::move(other); }

RatioRank& RatioRank::operator=(RatioRank&& other) noexcept {
  if (this == &other) return *this;
  charged_.store(other.charged_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  state_.store(other.state_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  table_ = std::move(other.table_);
  ranks_ = std::exchange(other.ranks_, nullptr);
  num_jobs_ = std::exchange(other.num_jobs_, 0);
  max_rank_ = std::exchange(other.max_rank_, 0);
  other.charged_.store(0, std::memory_order_relaxed);
  other.state_.store(kIdle, std::memory_order_relaxed);
  return *this;
}

const RatioRank* RatioRank::acquire(const Instance& instance,
                                    std::uint64_t sort_work) const {
  const std::uint8_t state = state_.load(std::memory_order_acquire);
  if (state == kReady) return this;
  if (state != kIdle || sort_work == 0) return nullptr;
  const std::uint64_t charged =
      charged_.fetch_add(sort_work, std::memory_order_relaxed) + sort_work;
  if (charged < RatioRank::sort_work(instance.num_jobs())) return nullptr;
  std::uint8_t expected = kIdle;
  if (!state_.compare_exchange_strong(expected, kBuilding,
                                      std::memory_order_relaxed)) {
    return nullptr;
  }
  bool built = false;
  try {
    built = build(instance);
  } catch (const std::bad_alloc&) {
    // No memory for the table: the comparator path needs none.
  }
  state_.store(built ? kReady : kRefused, std::memory_order_release);
  return built ? this : nullptr;
}

bool RatioRank::build(const Instance& instance) const {
  const std::size_t n = instance.num_jobs();
  if (instance.num_groups() != 2 || n > UINT32_MAX) return false;
  const std::span<const Cost> num = instance.group_row(0);
  const std::span<const Cost> den = instance.group_row(1);

  // Guard, part 1: costs finite and > 0, cross products normal.
  Cost num_lo = DBL_MAX, num_hi = 0.0, den_lo = DBL_MAX, den_hi = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (!(num[j] > 0.0 && num[j] <= DBL_MAX && den[j] > 0.0 &&
          den[j] <= DBL_MAX)) {
      return false;
    }
    num_lo = std::min(num_lo, num[j]);
    num_hi = std::max(num_hi, num[j]);
    den_lo = std::min(den_lo, den[j]);
    den_hi = std::max(den_hi, den[j]);
  }
  if (n > 0 && !(num_hi * den_hi <= kMaxProduct &&
                 num_lo * den_lo >= kMinProduct)) {
    return false;
  }

  // Sort job ids by (num / den, id). An LSD radix over the top 32 bits of
  // the ratio's IEEE pattern (monotone for positive doubles) is stable, so
  // equal keys stay in ascending id; the build's second slab is the radix
  // buffer, and ends up as the table.
  const auto ratio = [&](std::uint32_t j) { return num[j] / den[j]; };
  const auto key = [&](std::uint32_t j) {
    return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(ratio(j)) >>
                                      32);
  };
  core::numa::Slab sorted = alloc_words(n);
  core::numa::Slab spare = alloc_words(n);
  std::array<std::array<std::uint32_t, kBuckets>, kDigits> counts{};
  for (std::uint32_t j = 0; j < n; ++j) {
    words(sorted)[j] = j;
    const std::uint32_t k = key(j);
    for (unsigned d = 0; d < kDigits; ++d) {
      ++counts[d][(k >> (d * kDigitBits)) & (kBuckets - 1)];
    }
  }
  for (unsigned d = 0; d < kDigits; ++d) {
    std::array<std::uint32_t, kBuckets>& count = counts[d];
    if (std::find(count.begin(), count.end(), n) != count.end()) continue;
    std::uint32_t at = 0;
    for (std::uint32_t& c : count) at += std::exchange(c, at);
    const std::uint32_t* from = words(sorted);
    std::uint32_t* to = words(spare);
    for (std::size_t p = 0; p < n; ++p) {
      const std::uint32_t j = from[p];
      to[count[(key(j) >> (d * kDigitBits)) & (kBuckets - 1)]++] = j;
    }
    std::swap(sorted, spare);
  }
  // Keys hold 20 of the ratio's 52 mantissa bits: put each run of equal
  // keys in exact ratio order.
  std::uint32_t* order = words(sorted);
  for (std::size_t p = 0; p < n;) {
    const std::uint32_t run_key = key(order[p]);
    std::size_t q = p + 1;
    while (q < n && key(order[q]) == run_key) ++q;
    if (q - p > 1) {
      std::sort(order + p, order + q, [&](std::uint32_t x, std::uint32_t y) {
        const Cost rx = ratio(x);
        const Cost ry = ratio(y);
        return rx != ry ? rx < ry : x < y;
      });
    }
    p = q;
  }

  // Guard, part 2, while assigning dense ranks along the order.
  std::uint32_t* rank = words(spare);
  std::uint32_t r = 0;
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint32_t y = order[p];
    if (p > 0) {
      const std::uint32_t x = order[p - 1];
      const bool duplicate = num[x] == num[y] && den[x] == den[y];
      if (!duplicate) {
        if (!(num[x] * den[y] * kGuardGap < num[y] * den[x])) return false;
        ++r;
      }
    }
    rank[y] = r;
  }
  table_ = std::move(spare);
  ranks_ = words(table_);
  num_jobs_ = n;
  max_rank_ = r;
  return true;
}

}  // namespace dlb
