#pragma once

// RatioRank: the p(0, j) / p(1, j) order of a two-group instance as one
// dense u32 rank per job, so the two ratio-sorting pair kernels (CLB2C on a
// pair, Algorithm 5, and Greedy Load Balancing, Algorithm 6) sort a pool by
// integer keys instead of cross-multiplied costs.
//
// The kernels' reference order is pairwise::sort_by_group_ratio: x before y
// when p(num, x) * p(den, y) < p(num, y) * p(den, x), ties by job id. The
// comparison reads only the two group rows, so every pool's order is its
// slice of one fixed order over all jobs. rank(j) is j's place in the
// (0, 1) order, where exact duplicates (equal costs in both rows) share a
// rank; the (1, 0) key is max_rank() - rank(j). Sorting packed
// (key << 32 | job) words keeps duplicates in ascending id under both
// orders, which is the comparator's tie-break.
//
// The identity guard. A slice of one order reproduces the comparator sort
// only when the comparator is a strict total order on the instance's jobs;
// rounded cross products can break that near a tie. The build refuses the
// instance unless
//   * every cost of both rows is finite and > 0, and every cross product
//     is a normal double (so each rounds with relative error <= 2^-53);
//   * every adjacent pair of the built order is an exact duplicate, or its
//     computed cross products differ by a relative 2^-49 or more. That
//     leaves a true ratio gap above 2^-50, and gaps only grow along the
//     order, so no two roundings can flip or tie any pair of jobs.
// A refused instance keeps the comparator path for good.
//
// The build rule. The rank belongs to the Instance it ranks: a copy of the
// instance starts with none, a risk-aware surrogate (a separate Instance)
// builds its own, and schedules sharing one Instance share its rank. It is
// built lazily: each comparator sort of k jobs charges sort_work(k), and
// the call whose charge brings the total to sort_work(num_jobs) -- what
// one build costs -- builds it on its own thread. Other threads keep the
// comparator path until an acquire load sees the rank ready. Both paths
// give the same order, so results never depend on when the switch happens.
// two_cluster_fractional_opt (core/lower_bounds.hpp) charges a whole
// build at once, since it orders all n jobs: a run that computes its lower
// bound first builds the rank there, and its kernels find it ready. On a
// refused instance the bound keeps its own comparator sort.
//
// Memory: the table is 4 B/job, mapped from the kernel through
// numa::alloc_slab at any size (so rebuilding a rank per instance leaves no
// heap holes), and the build's scratch is one more 4 B/job mapping, freed
// before the rank is published.

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/numa.hpp"
#include "core/types.hpp"

namespace dlb {

class Instance;

class RatioRank {
 public:
  RatioRank() noexcept = default;
  // Copies start with no rank; a move takes the table (never concurrent
  // with a reader).
  RatioRank(const RatioRank&) noexcept {}
  RatioRank& operator=(const RatioRank& other) noexcept;
  RatioRank(RatioRank&& other) noexcept;
  RatioRank& operator=(RatioRank&& other) noexcept;

  /// What a comparator sort of k jobs is charged: k * floor(log2 k).
  [[nodiscard]] static std::uint64_t sort_work(std::size_t k) noexcept {
    return k < 2 ? 0 : k * static_cast<std::uint64_t>(std::bit_width(k) - 1);
  }

  /// This rank once it is built, else null. Charges `sort_work` toward the
  /// build threshold and builds when the total reaches it (see above).
  /// Null for good when the guard refuses `instance`, which must be the
  /// instance that owns this rank.
  [[nodiscard]] const RatioRank* acquire(const Instance& instance,
                                         std::uint64_t sort_work) const;

  /// rank(j) per job: ascending p(0, j) / p(1, j), exact duplicates equal.
  [[nodiscard]] std::span<const std::uint32_t> ranks() const noexcept {
    return {ranks_, num_jobs_};
  }
  [[nodiscard]] std::uint32_t max_rank() const noexcept { return max_rank_; }

 private:
  enum State : std::uint8_t { kIdle, kBuilding, kReady, kRefused };

  /// Fills the table; false when the guard refuses the instance.
  bool build(const Instance& instance) const;

  mutable std::atomic<std::uint64_t> charged_{0};
  mutable std::atomic<std::uint8_t> state_{kIdle};
  // Written by the building thread before its release store of kReady.
  mutable core::numa::Slab table_;
  mutable const std::uint32_t* ranks_ = nullptr;
  mutable std::size_t num_jobs_ = 0;
  mutable std::uint32_t max_rank_ = 0;
};

}  // namespace dlb
