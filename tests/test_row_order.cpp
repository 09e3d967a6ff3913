// Rows in kernel order: the two ratio kernels (pair CLB2C and the
// same-cluster greedy) write their split back as two whole rows, each in
// its machine's cluster order, and flag them; a later pool of two flagged
// rows is a merge instead of a sort. These tests check that the merge is
// the comparator sort bit for bit, that a kernel's split and load bits
// equal the reference path's, and that every change to a row's contents
// or to the decision instance drops the flag.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/generators.hpp"
#include "core/schedule.hpp"
#include "dist/dlb2c.hpp"
#include "pairwise/greedy_pair_balance.hpp"
#include "pairwise/pair_clb2c.hpp"
#include "pairwise/risk_aware.hpp"
#include "stats/rng.hpp"

namespace dlb {
namespace {

using pairwise::PairScratch;

std::uint64_t bits(Cost x) { return std::bit_cast<std::uint64_t>(x); }

/// The reference pool: id-sorted, then the comparator ratio sort.
std::vector<JobId> comparator_pool(const Schedule& s, MachineId a,
                                   MachineId b, GroupId num) {
  std::vector<JobId> pool = pairwise::pooled_jobs(s, a, b);
  pairwise::sort_by_group_ratio(s.decision_instance(), num, 1 - num, pool);
  return pool;
}

/// Dlb2cKernel's exchange by the reference path: the comparator pool
/// dealt by Algorithm 6 (same cluster) or Algorithm 5, applied through
/// move_split unless the split is load-neutral.
void reference_balance(Schedule& s, MachineId a, MachineId b) {
  const Instance& inst = s.decision_instance();
  const GroupId own = inst.group_of(a);
  std::vector<JobId> to_a;
  std::vector<JobId> to_b;
  Cost load_a = 0.0;
  Cost load_b = 0.0;
  if (own == inst.group_of(b)) {
    for (const JobId j : comparator_pool(s, a, b, own)) {
      if (load_a <= load_b) {
        to_a.push_back(j);
        load_a += inst.cost(a, j);
      } else {
        to_b.push_back(j);
        load_b += inst.cost(b, j);
      }
    }
  } else {
    pairwise::pair_clb2c_split(inst, a, b, pairwise::pooled_jobs(s, a, b),
                               to_a, to_b);
    for (const JobId j : to_a) load_a += inst.cost(a, j);
    for (const JobId j : to_b) load_b += inst.cost(b, j);
  }
  if (!pairwise::split_is_load_neutral(s, a, b, load_a, load_b)) {
    s.move_split(a, to_a, b, to_b);
  }
}

/// Flags both rows as they stand (one whole write that moves nothing).
void flag_rows(Schedule& s, MachineId a, MachineId b) {
  const LoadTable::JobList row_a = s.jobs_on(a);
  const LoadTable::JobList row_b = s.jobs_on(b);
  const std::vector<JobId> to_a(row_a.begin(), row_a.end());
  const std::vector<JobId> to_b(row_b.begin(), row_b.end());
  EXPECT_FALSE(s.write_split(a, to_a, b, to_b, /*in_order=*/true));
}

/// 3000 jobs drawn from five cost pairs, so most jobs have exact
/// duplicates: their order within a rank comes from the id tie-break
/// alone, which a merge of rows walked backward must restore.
Instance duplicate_instance(std::size_t per_group) {
  const std::vector<std::pair<Cost, Cost>> kinds = {
      {1.5, 2.0}, {3.0, 1.0}, {5.0, 7.0}, {2.0, 9.0}, {7.25, 7.25}};
  stats::Rng rng(31);
  std::vector<Cost> row0;
  std::vector<Cost> row1;
  for (int j = 0; j < 3000; ++j) {
    const auto& kind = kinds[rng.below(kinds.size())];
    row0.push_back(kind.first);
    row1.push_back(kind.second);
  }
  return Instance::clustered({per_group, per_group}, {row0, row1});
}

/// Random DLB2C exchanges on `inst` (rank accepted), each checked before
/// it runs: the pool in both group orders against the comparator pool,
/// then the kernel's assignment, load bits and migrations against the
/// reference path. Now and then a job from a third machine joins a or b
/// first, so pools of one or two unflagged rows come up among the merges.
void expect_merged_pools_match(const Instance& inst, std::uint64_t seed) {
  ASSERT_NE(inst.ratio_rank(RatioRank::sort_work(inst.num_jobs())), nullptr);
  const std::size_t m = inst.num_machines();
  Schedule s(inst, gen::random_assignment(inst, seed));
  stats::Rng rng(seed + 1);
  PairScratch scratch;
  const dist::Dlb2cKernel kernel;
  int merged_same = 0;
  int merged_cross = 0;
  int sorted = 0;
  for (int step = 0; step < 400; ++step) {
    const auto a = static_cast<MachineId>(rng.below(m));
    const auto b = static_cast<MachineId>((a + 1 + rng.below(m - 1)) % m);
    const auto c = static_cast<MachineId>(rng.below(m));
    const std::size_t unflag = rng.below(4);
    if (unflag < 2 && c != a && c != b && !s.jobs_on(c).empty()) {
      s.move(s.jobs_on(c).front(), unflag == 0 ? a : b);
    }
    const bool same = inst.group_of(a) == inst.group_of(b);
    if (s.row_in_order(a) && s.row_in_order(b)) {
      ++(same ? merged_same : merged_cross);
    } else {
      ++sorted;
    }
    const std::string where = "seed " + std::to_string(seed) + ", step " +
                              std::to_string(step) + ", machines " +
                              std::to_string(a) + "," + std::to_string(b);
    const GroupId own = inst.group_of(a);
    for (const GroupId num : {own, static_cast<GroupId>(1 - own)}) {
      pairwise::ratio_sorted_pool(s, a, b, num, 1 - num, scratch);
      ASSERT_EQ(scratch.pool, comparator_pool(s, a, b, num))
          << where << ", order (" << num << "," << 1 - num << ")";
    }
    Schedule expected(s);
    reference_balance(expected, a, b);
    kernel.balance(s, a, b);
    for (JobId j = 0; j < inst.num_jobs(); ++j) {
      ASSERT_EQ(s.machine_of(j), expected.machine_of(j))
          << where << ", job " << j;
    }
    for (MachineId i = 0; i < m; ++i) {
      ASSERT_EQ(bits(s.load(i)), bits(expected.load(i)))
          << where << ", machine " << i;
    }
    ASSERT_EQ(s.migrations(), expected.migrations()) << where;
  }
  ASSERT_TRUE(s.check_consistency());
  EXPECT_GT(merged_same, 20) << "seed " << seed;
  EXPECT_GT(merged_cross, 20) << "seed " << seed;
  EXPECT_GT(sorted, 20) << "seed " << seed;
}

TEST(RowOrder, MergedPoolsMatchTheComparatorSortOnRealValuedCosts) {
  // 2 + 2 machines pool about 1500 jobs (the radix path when a row is
  // unflagged), 12 + 12 about 250, 40 + 40 about 75 (std::sort).
  for (const std::size_t per_group : {2u, 12u, 40u}) {
    const Instance inst = gen::two_cluster_uniform(per_group, per_group,
                                                   3000, 1.0, 1000.0, 41);
    expect_merged_pools_match(inst, 42 + per_group);
  }
}

TEST(RowOrder, MergedPoolsMatchTheComparatorSortOnDuplicateCosts) {
  for (const std::size_t per_group : {2u, 12u, 40u}) {
    const Instance inst = duplicate_instance(per_group);
    ASSERT_NE(inst.ratio_rank(RatioRank::sort_work(inst.num_jobs())),
              nullptr);
    EXPECT_EQ(inst.ratio_rank(0)->max_rank(), 4u);
    expect_merged_pools_match(inst, 52 + per_group);
  }
}

TEST(RowOrder, FlagsClearOnAttachTakeAndANewDecisionInstance) {
  Instance inst = gen::two_cluster_uniform(2, 2, 40, 1.0, 100.0, 61);
  inst.set_cost_model(cost::CostModel(std::vector<cost::Dist>(
      inst.num_jobs(), cost::parse_dist("lognormal:0.5"))));
  ASSERT_EQ(inst.group_of(0), inst.group_of(1));
  ASSERT_NE(inst.group_of(0), inst.group_of(2));
  Schedule s(inst, Assignment::all_on(inst.num_jobs(), 0));
  const pairwise::GreedyPairBalanceKernel greedy;
  greedy.prepare(s);
  for (MachineId i = 0; i < 4; ++i) EXPECT_FALSE(s.row_in_order(i));

  // The kernel flags both rows it writes and no other.
  ASSERT_TRUE(greedy.balance(s, 0, 1));
  EXPECT_TRUE(s.row_in_order(0));
  EXPECT_TRUE(s.row_in_order(1));
  EXPECT_FALSE(s.row_in_order(2));
  // No new decision instance, no load-bit restore drops a flag.
  greedy.prepare(s);
  s.restore_load(0, s.load(0));
  EXPECT_TRUE(s.row_in_order(0));
  EXPECT_TRUE(s.row_in_order(1));

  // take: a job leaves machine 1.
  const JobId leaving = s.jobs_on(1).front();
  s.unassign(leaving);
  EXPECT_TRUE(s.row_in_order(0));
  EXPECT_FALSE(s.row_in_order(1));
  // attach: it comes back on machine 0.
  s.assign(leaving, 0);
  EXPECT_FALSE(s.row_in_order(0));
  EXPECT_TRUE(s.check_consistency());

  // A risk-aware surrogate reorders both clusters: attaching one, and
  // each new one after it, drops every flag.
  flag_rows(s, 0, 1);
  flag_rows(s, 2, 3);
  const pairwise::RiskAwareKernel risk(
      std::make_unique<pairwise::GreedyPairBalanceKernel>(),
      cost::RiskMode::kQuantile);
  risk.prepare(s);
  ASSERT_TRUE(s.has_decision_instance());
  for (MachineId i = 0; i < 4; ++i) EXPECT_FALSE(s.row_in_order(i));
  flag_rows(s, 0, 1);
  risk.prepare(s);
  EXPECT_FALSE(s.row_in_order(0));
  EXPECT_FALSE(s.row_in_order(1));
  // Back to the real instance: the same.
  flag_rows(s, 2, 3);
  greedy.prepare(s);
  EXPECT_FALSE(s.has_decision_instance());
  EXPECT_FALSE(s.row_in_order(2));
  EXPECT_FALSE(s.row_in_order(3));
  EXPECT_TRUE(s.check_consistency());
}

}  // namespace
}  // namespace dlb
