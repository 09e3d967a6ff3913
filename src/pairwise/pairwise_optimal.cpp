#include "pairwise/pairwise_optimal.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace dlb::pairwise {

namespace {

/// Evaluates the split encoded by `mask` (bit set => job goes to a).
Cost split_makespan(const Instance& instance, MachineId a, MachineId b,
                    std::span<const JobId> pool, std::uint32_t mask) {
  Cost load_a = 0.0;
  Cost load_b = 0.0;
  for (std::size_t k = 0; k < pool.size(); ++k) {
    if (mask & (1u << k)) {
      load_a += instance.cost(a, pool[k]);
    } else {
      load_b += instance.cost(b, pool[k]);
    }
  }
  return std::max(load_a, load_b);
}

}  // namespace

Cost optimal_pair_makespan(const Instance& instance, MachineId a, MachineId b,
                           std::span<const JobId> pool) {
  if (pool.size() > 30) {
    throw std::invalid_argument("optimal_pair_makespan: pool too large");
  }
  Cost best = split_makespan(instance, a, b, pool, 0);
  const std::uint32_t limit = 1u << pool.size();
  for (std::uint32_t mask = 1; mask < limit; ++mask) {
    best = std::min(best, split_makespan(instance, a, b, pool, mask));
  }
  return best;
}

bool PairwiseOptimalKernel::balance(Schedule& schedule, MachineId a,
                                    MachineId b) const {
  const Instance& instance = schedule.decision_instance();
  PairScratch& s = pair_scratch();
  pooled_jobs_into(schedule, a, b, s.pool);
  const std::vector<JobId>& pool = s.pool;
  if (pool.size() > max_pool_) {
    throw std::invalid_argument("PairwiseOptimalKernel: pool too large");
  }
  if (pool.empty()) return false;

  // Current split as a mask so we can keep it when it is already optimal.
  std::uint32_t current_mask = 0;
  for (std::size_t k = 0; k < pool.size(); ++k) {
    if (schedule.machine_of(pool[k]) == a) current_mask |= 1u << k;
  }
  const Cost current = split_makespan(instance, a, b, pool, current_mask);

  Cost best = current;
  std::uint32_t best_mask = current_mask;
  const std::uint32_t limit = 1u << pool.size();
  for (std::uint32_t mask = 0; mask < limit; ++mask) {
    const Cost value = split_makespan(instance, a, b, pool, mask);
    if (value < best) {
      best = value;
      best_mask = mask;
    }
  }
  if (best_mask == current_mask) return false;

  s.to_a.clear();
  s.to_b.clear();
  for (std::size_t k = 0; k < pool.size(); ++k) {
    ((best_mask & (1u << k)) ? s.to_a : s.to_b).push_back(pool[k]);
  }
  return schedule.write_split(a, s.to_a, b, s.to_b, /*in_order=*/false);
}

}  // namespace dlb::pairwise
