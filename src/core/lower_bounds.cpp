#include "core/lower_bounds.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/numa.hpp"
#include "core/ratio_rank.hpp"

namespace dlb {

Cost max_min_cost_bound(const Instance& instance) {
  Cost bound = 0.0;
  for (JobId j = 0; j < instance.num_jobs(); ++j) {
    bound = std::max(bound, instance.min_cost_of_job(j));
  }
  return bound;
}

Cost min_work_bound(const Instance& instance) {
  return instance.total_min_work() /
         static_cast<double>(instance.num_machines());
}

namespace {

/// The fractional optimum, given every job in ascending p1/p2 order.
Cost fractional_opt_in_order(const Instance& instance,
                             std::span<const JobId> order) {
  const auto m1 =
      static_cast<double>(instance.machines_in_group(0).size());
  const auto m2 =
      static_cast<double>(instance.machines_in_group(1).size());

  // Start with everything on cluster 2; move ratio-ordered jobs to cluster 1
  // one at a time, allowing a fractional split of the crossing job.
  double work1 = 0.0;
  double work2 = 0.0;
  for (JobId j : order) work2 += instance.group_cost(1, j);

  auto value = [&](double w1, double w2) {
    return std::max(w1 / m1, w2 / m2);
  };

  double best = value(work1, work2);
  for (JobId idx : order) {
    const double a = instance.group_cost(0, idx);
    const double b = instance.group_cost(1, idx);
    // Optimal split fraction of this job equalises the two sides.
    const double denom = a * m2 + b * m1;
    double x = (work2 * m1 - work1 * m2) / denom;
    x = std::clamp(x, 0.0, 1.0);
    best = std::min(best, value(work1 + x * a, work2 - x * b));
    work1 += a;
    work2 -= b;
    best = std::min(best, value(work1, work2));
  }
  return best;
}

}  // namespace

Cost two_cluster_fractional_opt(const Instance& instance) {
  if (instance.num_groups() != 2 || !instance.unit_scales()) {
    throw std::invalid_argument(
        "two_cluster_fractional_opt: needs two clusters with unit scales");
  }
  const std::size_t n = instance.num_jobs();

  // Charging one build's worth of sort work builds the rank now, unless
  // the guard refuses the instance. The rank orders the jobs as the
  // comparator does, except that it puts exact duplicates in ascending id;
  // duplicates add identical values in either order, so both paths give
  // the same bits. A counting pass over the ranks replaces the sort.
  if (const RatioRank* rank = instance.ratio_rank(RatioRank::sort_work(n))) {
    const std::span<const std::uint32_t> ranks = rank->ranks();
    const std::size_t buckets = std::size_t{rank->max_rank()} + 1;
    // Bucket starts, then the order, in one slab (mapped from the kernel
    // at 128 KiB and up, like every large per-pass buffer).
    const core::numa::Slab slab =
        core::numa::alloc_slab((buckets + n) * sizeof(std::uint32_t));
    auto* const start = reinterpret_cast<std::uint32_t*>(slab.get());
    JobId* const order = start + buckets;
    std::fill(start, start + buckets, 0u);
    for (JobId j = 0; j < n; ++j) ++start[ranks[j]];
    std::exclusive_scan(start, start + buckets, start, 0u);
    for (JobId j = 0; j < n; ++j) order[start[ranks[j]]++] = j;
    return fractional_opt_in_order(instance, {order, n});
  }

  std::vector<JobId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    // Increasing p1/p2 ratio == cross-multiplied to avoid division.
    return instance.group_cost(0, a) * instance.group_cost(1, b) <
           instance.group_cost(0, b) * instance.group_cost(1, a);
  });
  return fractional_opt_in_order(instance, order);
}

Cost makespan_lower_bound(const Instance& instance) {
  Cost bound = std::max(max_min_cost_bound(instance),
                        min_work_bound(instance));
  // The fractional bound divides by each cluster's machine count, so it
  // only applies when both clusters actually have machines.
  if (instance.num_groups() == 2 && instance.unit_scales() &&
      !instance.machines_in_group(0).empty() &&
      !instance.machines_in_group(1).empty()) {
    bound = std::max(bound, two_cluster_fractional_opt(instance));
  }
  return bound;
}

}  // namespace dlb
