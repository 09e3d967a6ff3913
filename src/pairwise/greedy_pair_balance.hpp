#pragma once

// Greedy Load Balancing (Algorithm 6): the same-cluster exchange of DLB2C.
// The pooled jobs are sorted by how much they "belong" to this cluster
// (increasing p_own / p_other ratio) and dealt one at a time to the
// currently less-loaded machine. The ratio sort does not change the pair's
// balance (the machines are identical) but keeps the cluster's job mix
// ready for future cross-cluster exchanges, exactly as in the paper.
//
// Requires an instance with exactly two groups and unit scales.

#include "pairwise/pair_kernel.hpp"

namespace dlb::pairwise {

/// Sorts `pool` by increasing p(num, j) / p(den, j) (cross-multiplied to
/// avoid division; ties broken by job id).
void sort_by_group_ratio(const Instance& instance, GroupId num, GroupId den,
                         std::vector<JobId>& pool);

/// sort_by_group_ratio over flat gathered keys: the two group-cost columns
/// are copied into scratch.key_num / scratch.key_den once (contiguous,
/// SIMD/prefetch friendly) and the sort permutes pool positions whose
/// comparator reads those arrays. Runs the exact same comparison sequence
/// as sort_by_group_ratio — the resulting order is bitwise identical.
void sort_by_group_ratio_flat(const Instance& instance, GroupId num,
                              GroupId den, std::vector<JobId>& pool,
                              PairScratch& scratch);

/// Fills scratch.pool with the jobs of machines a and b in
/// sort_by_group_ratio's (num, den) order over the schedule's decision
/// instance: bitwise what pooled_jobs_into followed by
/// sort_by_group_ratio_flat produce, which is the path it takes until that
/// instance's ratio rank (core/ratio_rank.hpp) is built. With the rank, a
/// pool is one sort of packed (rank key << 32 | job) words, or, when both
/// rows are flagged in order (Schedule::row_in_order), a merge of the two
/// rows' words with each run of one key put in id order.
void ratio_sorted_pool(const Schedule& schedule, MachineId a, MachineId b,
                       GroupId num, GroupId den, PairScratch& scratch);

class GreedyPairBalanceKernel final : public PairKernel {
 public:
  /// a and b must belong to the same group of a two-group instance.
  bool balance(Schedule& schedule, MachineId a, MachineId b) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "greedy-pair-balance";
  }
};

}  // namespace dlb::pairwise
