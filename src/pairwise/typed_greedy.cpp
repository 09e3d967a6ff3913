#include "pairwise/typed_greedy.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "pairwise/basic_greedy.hpp"

namespace dlb::pairwise {

bool TypedGreedyKernel::balance(Schedule& schedule, MachineId a,
                                MachineId b) const {
  const Instance& instance = schedule.decision_instance();
  if (!instance.has_job_types()) {
    throw std::invalid_argument("TypedGreedyKernel: instance has no job types");
  }
  PairScratch& s = pair_scratch();
  pooled_jobs_into(schedule, a, b, s.pool);

  // Bucket the pooled jobs by type with a counting sort into the flat
  // scratch buffer: a stable scatter preserves job-id order within each
  // bucket (pooled_jobs_into sorts by id, so each bucket is deterministic)
  // without allocating a vector per type. Bucket t occupies
  // tmp[counts[t], counts[t + 1]).
  const std::size_t num_types = instance.num_job_types();
  s.counts.assign(num_types + 1, 0);
  for (JobId j : s.pool) ++s.counts[instance.job_type(j) + 1];
  for (std::size_t t = 1; t <= num_types; ++t) s.counts[t] += s.counts[t - 1];
  s.order.assign(s.counts.begin(), s.counts.end());
  s.tmp.resize(s.pool.size());
  for (JobId j : s.pool) s.tmp[s.order[instance.job_type(j)]++] = j;

  bool changed = false;
  std::vector<JobId>& to_a = s.to_a;
  std::vector<JobId>& to_b = s.to_b;
  for (std::size_t t = 0; t < num_types; ++t) {
    const std::span<const JobId> bucket(s.tmp.data() + s.counts[t],
                                        s.counts[t + 1] - s.counts[t]);
    if (bucket.empty()) continue;
    // Each type is balanced from zero type-local load: Algorithm 2 on the
    // bucket alone (loads of other types are invisible by design).
    const auto [new_a, new_b] =
        basic_greedy_split(instance, a, b, bucket, to_a, to_b);
    // Lazy no-op per type: skip when the bucket's type-local loads would
    // not change (counts on each side stay the same).
    Cost cur_a = 0.0;
    Cost cur_b = 0.0;
    for (JobId j : bucket) {
      if (schedule.machine_of(j) == a) {
        cur_a += instance.cost(a, j);
      } else {
        cur_b += instance.cost(b, j);
      }
    }
    // Tolerant comparison: the sums accumulate in different orders.
    const Cost scale = 1.0 + std::max({cur_a, cur_b, new_a, new_b});
    if (std::abs(cur_a - new_a) <= 1e-12 * scale &&
        std::abs(cur_b - new_b) <= 1e-12 * scale) {
      continue;
    }
    changed |= apply_split(schedule, a, b, to_a, to_b);
  }
  return changed;
}

}  // namespace dlb::pairwise
