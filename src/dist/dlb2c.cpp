#include "dist/dlb2c.hpp"

#include <stdexcept>

#include "pairwise/greedy_pair_balance.hpp"
#include "pairwise/pair_clb2c.hpp"

namespace dlb::dist {

bool Dlb2cKernel::balance(Schedule& schedule, MachineId a, MachineId b) const {
  const Instance& instance = schedule.decision_instance();
  if (instance.num_groups() != 2 || !instance.unit_scales()) {
    throw std::invalid_argument(
        "Dlb2cKernel: needs two clusters of identical machines");
  }
  // Two empty machines pool no job: both splits would write nothing.
  if (schedule.jobs_on(a).empty() && schedule.jobs_on(b).empty()) {
    return false;
  }
  if (instance.group_of(a) == instance.group_of(b)) {
    static const pairwise::GreedyPairBalanceKernel same_cluster;
    return same_cluster.balance(schedule, a, b);
  }
  static const pairwise::PairClb2cKernel cross_cluster;
  return cross_cluster.balance(schedule, a, b);
}

RunResult run_dlb2c(Schedule& schedule, const EngineOptions& options,
                    stats::Rng& rng) {
  const Dlb2cKernel kernel;
  const UniformPeerSelector selector;
  return ExchangeEngine(kernel, selector).run(schedule, options, rng);
}

}  // namespace dlb::dist
