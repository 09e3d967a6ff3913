#include "pairwise/basic_greedy.hpp"

#include <algorithm>
#include <cmath>

namespace dlb::pairwise {

PairScratch& pair_scratch() noexcept {
  thread_local PairScratch scratch;
  return scratch;
}

void pooled_jobs_into(const Schedule& schedule, MachineId a, MachineId b,
                      std::vector<JobId>& pool) {
  const LoadTable::JobList on_a = schedule.jobs_on(a);
  const LoadTable::JobList on_b = schedule.jobs_on(b);
  pool.assign(on_a.begin(), on_a.end());
  pool.insert(pool.end(), on_b.begin(), on_b.end());
  std::sort(pool.begin(), pool.end());
}

std::vector<JobId> pooled_jobs(const Schedule& schedule, MachineId a,
                               MachineId b) {
  std::vector<JobId> pool;
  pooled_jobs_into(schedule, a, b, pool);
  return pool;
}

bool split_is_load_neutral(const Schedule& schedule, MachineId a, MachineId b,
                           Cost load_a, Cost load_b) noexcept {
  const Cost scale =
      1.0 + std::max(std::abs(load_a), std::abs(load_b));
  constexpr Cost kRelTol = 1e-12;
  return std::abs(schedule.decision_load(a) - load_a) <= kRelTol * scale &&
         std::abs(schedule.decision_load(b) - load_b) <= kRelTol * scale;
}

bool apply_split(Schedule& schedule, MachineId a, MachineId b,
                 const std::vector<JobId>& to_a,
                 const std::vector<JobId>& to_b) {
  return schedule.move_split(a, to_a, b, to_b);
}

std::pair<Cost, Cost> basic_greedy_split(const Instance& instance,
                                         MachineId a, MachineId b,
                                         std::span<const JobId> pool,
                                         std::vector<JobId>& to_a,
                                         std::vector<JobId>& to_b) {
  to_a.clear();
  to_b.clear();
  Cost load_a = 0.0;
  Cost load_b = 0.0;
  for (JobId j : pool) {
    const Cost ca = instance.cost(a, j);
    const Cost cb = instance.cost(b, j);
    // Algorithm 2's rule: the host machine keeps the job on ties.
    if (load_a + ca <= load_b + cb) {
      to_a.push_back(j);
      load_a += ca;
    } else {
      to_b.push_back(j);
      load_b += cb;
    }
  }
  return {load_a, load_b};
}

bool BasicGreedyKernel::balance(Schedule& schedule, MachineId a,
                                MachineId b) const {
  const Instance& instance = schedule.decision_instance();
  PairScratch& s = pair_scratch();
  pooled_jobs_into(schedule, a, b, s.pool);
  const auto [load_a, load_b] =
      basic_greedy_split(instance, a, b, s.pool, s.to_a, s.to_b);
  if (split_is_load_neutral(schedule, a, b, load_a, load_b)) return false;
  return schedule.write_split(a, s.to_a, b, s.to_b, /*in_order=*/false);
}

}  // namespace dlb::pairwise
