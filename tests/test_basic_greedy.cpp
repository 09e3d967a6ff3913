#include "pairwise/basic_greedy.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/generators.hpp"
#include "pairwise/pairwise_optimal.hpp"
#include "stats/rng.hpp"

namespace dlb::pairwise {
namespace {

TEST(BasicGreedy, PoolsBothMachinesJobs) {
  const Instance inst = Instance::identical(3, {1.0, 1.0, 1.0, 1.0});
  Schedule s(inst, Assignment::all_on(4, 0));
  const BasicGreedyKernel kernel;
  EXPECT_TRUE(kernel.balance(s, 0, 1));
  EXPECT_EQ(s.jobs_on(0).size(), 2u);
  EXPECT_EQ(s.jobs_on(1).size(), 2u);
  EXPECT_TRUE(s.jobs_on(2).empty());  // third machine untouched
}

TEST(BasicGreedy, IsIdempotentPerPair) {
  const Instance inst = gen::uniform_unrelated(4, 12, 1.0, 10.0, 31);
  Schedule s(inst, gen::random_assignment(inst, 32));
  const BasicGreedyKernel kernel;
  kernel.balance(s, 1, 2);
  EXPECT_FALSE(kernel.balance(s, 1, 2));  // a second call changes nothing
}

TEST(BasicGreedy, SingleTypeSplitIsOptimal_Lemma3) {
  // Lemma 3: with one job type the pair split is optimal. Check against the
  // exhaustive pair oracle on many random single-type pools.
  const BasicGreedyKernel kernel;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    stats::Rng rng(seed);
    const std::size_t n = 1 + rng.below(12);
    const Cost pa = 1.0 + rng.uniform() * 9.0;   // cost per job on machine a
    const Cost pb = 1.0 + rng.uniform() * 9.0;   // cost per job on machine b
    const Instance inst = Instance::unrelated(
        {std::vector<Cost>(n, pa), std::vector<Cost>(n, pb)});
    Schedule s(inst, Assignment::all_on(n, 0));
    kernel.balance(s, 0, 1);
    std::vector<JobId> pool(n);
    std::iota(pool.begin(), pool.end(), 0);
    const Cost optimal = optimal_pair_makespan(inst, 0, 1, pool);
    EXPECT_NEAR(s.makespan(), optimal, 1e-9)
        << "seed=" << seed << " n=" << n << " pa=" << pa << " pb=" << pb;
  }
}

TEST(BasicGreedy, NeverIncreasesPairMakespanOnSingleType) {
  // With one job type the greedy split is optimal (Lemma 3), hence never
  // worse than the current split. (With mixed job sizes Basic Greedy is a
  // heuristic and *can* increase the pair makespan — see Proposition 2's
  // discussion — so this monotonicity is only asserted for single types.)
  const BasicGreedyKernel kernel;
  for (std::uint64_t seed = 100; seed < 115; ++seed) {
    stats::Rng rng(seed);
    const Cost pa = 1.0 + rng.uniform() * 9.0;
    const Cost pb = 1.0 + rng.uniform() * 9.0;
    const Instance inst = Instance::unrelated(
        {std::vector<Cost>(10, pa), std::vector<Cost>(10, pb)});
    Schedule s(inst, gen::random_assignment(inst, seed + 1));
    const Cost before = s.makespan();
    kernel.balance(s, 0, 1);
    EXPECT_LE(s.makespan(), before + 1e-9);
  }
}

TEST(BasicGreedy, HostKeepsJobOnTies) {
  // Equal costs both sides: Algorithm 2's `<=` sends the first job to the
  // host machine (a).
  const Instance inst = Instance::identical(2, {5.0});
  Schedule s(inst, Assignment::all_on(1, 1));
  const BasicGreedyKernel kernel;
  kernel.balance(s, 0, 1);
  EXPECT_EQ(s.machine_of(0), 0u);
}

TEST(BasicGreedy, EmptyPoolIsNoop) {
  const Instance inst = Instance::identical(3, {1.0});
  Schedule s(inst, Assignment::all_on(1, 2));
  const BasicGreedyKernel kernel;
  EXPECT_FALSE(kernel.balance(s, 0, 1));
}

TEST(BasicGreedySplit, DeterministicFunctionOfPool) {
  const Instance inst = gen::uniform_unrelated(2, 8, 1.0, 10.0, 41);
  std::vector<JobId> pool = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<JobId> to_a1, to_b1, to_a2, to_b2;
  basic_greedy_split(inst, 0, 1, pool, to_a1, to_b1);
  basic_greedy_split(inst, 0, 1, pool, to_a2, to_b2);
  EXPECT_EQ(to_a1, to_a2);
  EXPECT_EQ(to_b1, to_b2);
}

TEST(PairHelpers, PooledJobsIsSortedUnion) {
  const Instance inst = Instance::identical(3, {1.0, 1.0, 1.0, 1.0});
  Schedule s(inst);
  s.assign(2, 0);
  s.assign(0, 1);
  s.assign(3, 1);
  s.assign(1, 2);
  const auto pool = pooled_jobs(s, 0, 1);
  EXPECT_EQ(pool, (std::vector<JobId>{0, 2, 3}));
}

TEST(PairHelpers, ApplySplitReportsChanges) {
  const Instance inst = Instance::identical(2, {1.0, 1.0});
  Schedule s(inst, Assignment::all_on(2, 0));
  EXPECT_FALSE(apply_split(s, 0, 1, {0, 1}, {}));   // already there
  EXPECT_TRUE(apply_split(s, 0, 1, {0}, {1}));      // moves job 1
  EXPECT_EQ(s.machine_of(1), 1u);
}

TEST(Schedule, ApplySplitCountsOnlyTrueMoves) {
  // Three machines, seven jobs: 0-2 on machine 0, 3-4 on 1, 5 on 2, and 6
  // unassigned. The split keeps 0 and 3 home, moves 1, 4 and 5, and places
  // 6. Only the three moves are migrations, as with one move() per job.
  const Instance inst = gen::uniform_unrelated(3, 7, 1.0, 10.0, 61);
  Assignment assignment(7);
  const std::vector<MachineId> home = {0, 0, 0, 1, 1, 2};
  for (JobId j = 0; j < home.size(); ++j) assignment.assign(j, home[j]);
  Schedule split(inst, assignment);
  Schedule one_by_one(inst, assignment);
  split.move(2, 1);  // earlier migrations are kept
  one_by_one.move(2, 1);
  const std::vector<JobId> to_a = {0, 4, 6};
  const std::vector<JobId> to_b = {1, 3, 5};

  EXPECT_TRUE(apply_split(split, 0, 1, to_a, to_b));
  for (const JobId j : to_a) one_by_one.move(j, 0);
  for (const JobId j : to_b) one_by_one.move(j, 1);
  EXPECT_EQ(split.migrations(), 1u + 3u);
  EXPECT_EQ(split.migrations(), one_by_one.migrations());
  for (MachineId i = 0; i < 3; ++i) {
    EXPECT_EQ(split.arrivals(i), one_by_one.arrivals(i)) << "machine " << i;
    EXPECT_EQ(split.load(i), one_by_one.load(i)) << "machine " << i;
  }
  EXPECT_EQ(split.assignment(), one_by_one.assignment());
  EXPECT_EQ(split.arrivals(0), 1u);  // job 4; placing job 6 is no arrival
  EXPECT_EQ(split.arrivals(1), 3u);  // jobs 2, 1 and 5
  EXPECT_TRUE(split.check_consistency());

  // The same split again moves nothing and counts nothing.
  EXPECT_FALSE(apply_split(split, 0, 1, to_a, to_b));
  EXPECT_EQ(split.migrations(), 4u);
}

}  // namespace
}  // namespace dlb::pairwise
