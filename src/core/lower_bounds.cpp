#include "core/lower_bounds.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

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

Cost two_cluster_fractional_opt(const Instance& instance) {
  if (instance.num_groups() != 2 || !instance.unit_scales()) {
    throw std::invalid_argument(
        "two_cluster_fractional_opt: needs two clusters with unit scales");
  }
  const auto m1 =
      static_cast<double>(instance.machines_in_group(0).size());
  const auto m2 =
      static_cast<double>(instance.machines_in_group(1).size());

  std::vector<JobId> order(instance.num_jobs());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    // Increasing p1/p2 ratio == cross-multiplied to avoid division.
    return instance.group_cost(0, a) * instance.group_cost(1, b) <
           instance.group_cost(0, b) * instance.group_cost(1, a);
  });

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
