#include "pairwise/pair_clb2c.hpp"

#include <span>
#include <stdexcept>
#include <utility>

#include "pairwise/greedy_pair_balance.hpp"

namespace dlb::pairwise {

namespace {

/// The two-pointer dealing loop of Algorithm 5 over an already
/// ratio-sorted pool (jobs favouring a's cluster first, b's last).
/// Returns the loads of a and b: the sums of the dealt costs in order.
/// cost(a, ·) and cost(b, ·) of the pool are read into the scratch columns
/// first, as independent loads; the loop then reads only the columns.
std::pair<Cost, Cost> deal_sorted_pool(const Instance& instance, MachineId a,
                                       MachineId b,
                                       std::span<const JobId> pool,
                                       std::vector<JobId>& to_a,
                                       std::vector<JobId>& to_b,
                                       PairScratch& scratch) {
  to_a.clear();
  to_b.clear();
  std::vector<Cost>& cost_a = scratch.cost_a;
  std::vector<Cost>& cost_b = scratch.cost_b;
  cost_a.resize(pool.size());
  cost_b.resize(pool.size());
  for (std::size_t p = 0; p < pool.size(); ++p) {
    cost_a[p] = instance.cost(a, pool[p]);
    cost_b[p] = instance.cost(b, pool[p]);
  }
  Cost load_a = 0.0;
  Cost load_b = 0.0;
  std::size_t front = 0;
  std::size_t back = pool.size();
  while (front < back) {
    const JobId jf = pool[front];
    const JobId jb = pool[back - 1];
    const Cost completion_a = load_a + cost_a[front];
    const Cost completion_b = load_b + cost_b[back - 1];
    // Place whichever choice yields the smaller completion time on its
    // machine (Algorithm 5's selection rule). When only one job remains,
    // jf == jb and the same comparison picks its better side.
    if (completion_a <= completion_b) {
      to_a.push_back(jf);
      load_a = completion_a;
      ++front;
    } else {
      to_b.push_back(jb);
      load_b = completion_b;
      --back;
    }
  }
  return {load_a, load_b};
}

}  // namespace

void pair_clb2c_split(const Instance& instance, MachineId a, MachineId b,
                      std::vector<JobId> pool, std::vector<JobId>& to_a,
                      std::vector<JobId>& to_b) {
  // Jobs that favour a's cluster come first, jobs that favour b's come last.
  sort_by_group_ratio(instance, instance.group_of(a), instance.group_of(b),
                      pool);
  deal_sorted_pool(instance, a, b, pool, to_a, to_b, pair_scratch());
}

bool PairClb2cKernel::balance(Schedule& schedule, MachineId a,
                              MachineId b) const {
  const Instance& instance = schedule.decision_instance();
  if (instance.group_of(a) == instance.group_of(b)) {
    throw std::invalid_argument(
        "PairClb2cKernel: machines must be in different clusters");
  }
  PairScratch& s = pair_scratch();
  ratio_sorted_pool(schedule, a, b, instance.group_of(a), instance.group_of(b),
                    s);
  const auto [load_a, load_b] =
      deal_sorted_pool(instance, a, b, s.pool, s.to_a, s.to_b, s);
  if (split_is_load_neutral(schedule, a, b, load_a, load_b)) return false;
  // to_a is dealt from the front of the pool, ascending in a's cluster
  // order; to_b from the back, ascending in b's (the reverse).
  return schedule.write_split(a, s.to_a, b, s.to_b, /*in_order=*/true);
}

}  // namespace dlb::pairwise
