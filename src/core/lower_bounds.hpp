#pragma once

// Certified lower bounds on OPT for `R||Cmax` instances. The benches use
// them to report approximation factors on instances too large for the exact
// solver, and the tests use them to sanity-check every heuristic (no
// algorithm may ever beat a lower bound).

#include "core/instance.hpp"
#include "core/types.hpp"

namespace dlb {

/// max_j min_i p(i, j): some machine must run each job, so OPT is at least
/// the cheapest execution of the most expensive job.
[[nodiscard]] Cost max_min_cost_bound(const Instance& instance);

/// (sum_j min_i p(i, j)) / m: total work at the cheapest rates spread over
/// all machines. Valid for any instance, weak when machines are specialised.
[[nodiscard]] Cost min_work_bound(const Instance& instance);

/// Exact optimum of the *fractional* (splittable jobs) relaxation for two
/// clusters of identical machines with unit scales: jobs are ratio-sorted
/// and a prefix goes to cluster 1, with at most one split job (fractional
/// knapsack argument). Requires num_groups() == 2 and unit scales; throws
/// std::invalid_argument otherwise. A valid lower bound on the integral OPT.
///
/// The ratio order comes from the instance's ratio rank
/// (core/ratio_rank.hpp), which this call builds if no kernel has yet, by
/// an O(n) counting pass. When the rank's guard refuses the instance, a
/// comparator sort on cross products gives the order instead. Under the
/// guard the two orders differ only among exact duplicates, which add the
/// same values, so the result has the same bits either way.
[[nodiscard]] Cost two_cluster_fractional_opt(const Instance& instance);

/// Best available combination of the bounds above for the given instance
/// shape (uses the fractional bound when the instance is a two-cluster one).
[[nodiscard]] Cost makespan_lower_bound(const Instance& instance);

}  // namespace dlb
