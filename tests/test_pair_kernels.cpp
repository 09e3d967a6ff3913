// Tests for the two-cluster pair kernels: Greedy Load Balancing
// (Algorithm 6) and pair CLB2C (Algorithm 5 on {m}, {i}), the ratio rank
// their pools are sorted by (core/ratio_rank.hpp), and the row walk every
// kernel gathers its pool with.

#include "pairwise/greedy_pair_balance.hpp"
#include "pairwise/pair_clb2c.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <thread>

#include "core/generators.hpp"
#include "core/instance_store.hpp"
#include "pairwise/kernel_registry.hpp"
#include "pairwise/pairwise_optimal.hpp"
#include "stats/rng.hpp"

namespace dlb::pairwise {
namespace {

Instance small_two_cluster(std::uint64_t seed, std::size_t jobs = 10) {
  return gen::two_cluster_uniform(2, 2, jobs, 1.0, 10.0, seed);
}

TEST(SortByGroupRatio, OrdersByRatio) {
  // Ratios p0/p1: job0 = 0.1, job1 = 10, job2 = 1.
  const Instance inst =
      Instance::clustered({1, 1}, {{1.0, 10.0, 5.0}, {10.0, 1.0, 5.0}});
  std::vector<JobId> pool = {0, 1, 2};
  sort_by_group_ratio(inst, 0, 1, pool);
  EXPECT_EQ(pool, (std::vector<JobId>{0, 2, 1}));
  sort_by_group_ratio(inst, 1, 0, pool);
  EXPECT_EQ(pool, (std::vector<JobId>{1, 2, 0}));
}

TEST(SortByGroupRatio, TieBreaksByJobId) {
  const Instance inst =
      Instance::clustered({1, 1}, {{2.0, 2.0, 2.0}, {3.0, 3.0, 3.0}});
  std::vector<JobId> pool = {2, 0, 1};
  sort_by_group_ratio(inst, 0, 1, pool);
  EXPECT_EQ(pool, (std::vector<JobId>{0, 1, 2}));
}

TEST(GreedyPairBalance, BalancesIdenticalPairEvenly) {
  const Instance inst = Instance::clustered(
      {2, 1}, {{2.0, 2.0, 2.0, 2.0}, {9.0, 9.0, 9.0, 9.0}});
  Schedule s(inst, Assignment::all_on(4, 0));
  const GreedyPairBalanceKernel kernel;
  EXPECT_TRUE(kernel.balance(s, 0, 1));
  EXPECT_DOUBLE_EQ(s.load(0), 4.0);
  EXPECT_DOUBLE_EQ(s.load(1), 4.0);
}

TEST(GreedyPairBalance, LoadsDifferByAtMostOneJob) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Instance inst = small_two_cluster(seed, 15);
    Schedule s(inst, Assignment::all_on(15, 0));
    const GreedyPairBalanceKernel kernel;
    kernel.balance(s, 0, 1);
    // Greedy dealing keeps |C(a) - C(b)| below the largest pooled job.
    EXPECT_LE(std::abs(s.load(0) - s.load(1)), inst.max_cost() + 1e-9);
  }
}

TEST(GreedyPairBalance, RejectsCrossClusterPair) {
  const Instance inst = small_two_cluster(1);
  Schedule s(inst, gen::random_assignment(inst, 2));
  const GreedyPairBalanceKernel kernel;
  EXPECT_THROW(kernel.balance(s, 0, 2), std::invalid_argument);
}

TEST(GreedyPairBalance, RejectsNonTwoClusterInstance) {
  const Instance inst = Instance::identical(3, {1.0, 2.0});
  Schedule s(inst, Assignment::all_on(2, 0));
  const GreedyPairBalanceKernel kernel;
  EXPECT_THROW(kernel.balance(s, 0, 1), std::invalid_argument);
}

TEST(GreedyPairBalance, IsIdempotentPerPair) {
  const Instance inst = small_two_cluster(3, 12);
  Schedule s(inst, gen::random_assignment(inst, 4));
  const GreedyPairBalanceKernel kernel;
  kernel.balance(s, 2, 3);  // machines 2,3 are cluster 2
  EXPECT_FALSE(kernel.balance(s, 2, 3));
}

TEST(PairClb2c, SpecialisedJobsGoHome) {
  // Job 0 loves cluster 1, job 1 loves cluster 2.
  const Instance inst =
      Instance::clustered({1, 1}, {{1.0, 9.0}, {9.0, 1.0}});
  Schedule s(inst, Assignment::all_on(2, 0));
  const PairClb2cKernel kernel;
  kernel.balance(s, 0, 1);
  EXPECT_EQ(s.machine_of(0), 0u);
  EXPECT_EQ(s.machine_of(1), 1u);
  EXPECT_DOUBLE_EQ(s.makespan(), 1.0);
}

TEST(PairClb2c, RolesFollowClustersNotArgumentOrder) {
  const Instance inst =
      Instance::clustered({1, 1}, {{1.0, 9.0}, {9.0, 1.0}});
  // Initiate from the cluster-2 machine: same final placement.
  Schedule s(inst, Assignment::all_on(2, 1));
  const PairClb2cKernel kernel;
  kernel.balance(s, 1, 0);
  EXPECT_EQ(s.machine_of(0), 0u);
  EXPECT_EQ(s.machine_of(1), 1u);
}

TEST(PairClb2c, RejectsSameClusterPair) {
  const Instance inst = small_two_cluster(5);
  Schedule s(inst, gen::random_assignment(inst, 6));
  const PairClb2cKernel kernel;
  EXPECT_THROW(kernel.balance(s, 0, 1), std::invalid_argument);
}

TEST(PairClb2c, IsIdempotentPerPair) {
  const Instance inst = small_two_cluster(7, 14);
  Schedule s(inst, gen::random_assignment(inst, 8));
  const PairClb2cKernel kernel;
  kernel.balance(s, 1, 2);
  EXPECT_FALSE(kernel.balance(s, 1, 2));
}

TEST(PairClb2c, PairMakespanWithin2xOfPairOptimal) {
  // Theorem 6 restricted to a pair: CLB2C's split is a 2-approximation of
  // the exhaustive pair optimum whenever job costs don't dominate.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const Instance inst = gen::two_cluster_uniform(1, 1, 12, 1.0, 5.0, seed);
    Schedule s(inst, Assignment::all_on(12, 0));
    const PairClb2cKernel kernel;
    kernel.balance(s, 0, 1);
    std::vector<JobId> pool(12);
    std::iota(pool.begin(), pool.end(), 0);
    const Cost optimal = optimal_pair_makespan(inst, 0, 1, pool);
    const Cost reference = std::max(optimal, inst.max_cost());
    EXPECT_LE(s.makespan(), 2.0 * reference + 1e-9) << "seed=" << seed;
  }
}

TEST(PairClb2cSplit, SplitsFromEmptyLoads) {
  const Instance inst =
      Instance::clustered({1, 1}, {{3.0, 4.0}, {4.0, 3.0}});
  std::vector<JobId> to_a;
  std::vector<JobId> to_b;
  pair_clb2c_split(inst, 0, 1, {0, 1}, to_a, to_b);
  EXPECT_EQ(to_a, (std::vector<JobId>{0}));
  EXPECT_EQ(to_b, (std::vector<JobId>{1}));
}

// ----- the ratio rank -----

/// Charges one build's worth of comparator sorts, so the rank is built now
/// (or refused).
const RatioRank* build_rank(const Instance& inst) {
  return inst.ratio_rank(RatioRank::sort_work(inst.num_jobs()));
}

/// The reference pool: id-sorted, then the comparator ratio sort.
std::vector<JobId> comparator_pool(const Schedule& s, MachineId a,
                                   MachineId b, GroupId num, GroupId den) {
  std::vector<JobId> pool = pooled_jobs(s, a, b);
  sort_by_group_ratio(s.instance(), num, den, pool);
  return pool;
}

/// ratio_sorted_pool equals the comparator pool for `pairs` random machine
/// pairs of `s`, in both group orders.
void expect_rank_pools_match(const Schedule& s, std::uint64_t seed,
                             int pairs) {
  const std::size_t m = s.instance().num_machines();
  stats::Rng rng(seed);
  PairScratch scratch;
  for (int p = 0; p < pairs; ++p) {
    const auto a = static_cast<MachineId>(rng.below(m));
    const auto b = static_cast<MachineId>(rng.below(m));
    if (a == b) continue;
    for (const GroupId num : {0u, 1u}) {
      ratio_sorted_pool(s, a, b, num, 1 - num, scratch);
      EXPECT_EQ(scratch.pool, comparator_pool(s, a, b, num, 1 - num))
          << "machines " << a << "," << b << " order (" << num << ","
          << 1 - num << ")";
    }
  }
}

TEST(RatioRank, BuildsOnceComparatorSortsCostOneBuild) {
  const Instance inst = gen::two_cluster_uniform(2, 2, 1000, 1.0, 1000.0, 3);
  const std::uint64_t one_build = RatioRank::sort_work(inst.num_jobs());
  EXPECT_EQ(RatioRank::sort_work(1), 0u);
  EXPECT_EQ(RatioRank::sort_work(1000), 9000u);
  EXPECT_EQ(inst.ratio_rank(one_build - 1), nullptr);
  const RatioRank* rank = inst.ratio_rank(1);
  ASSERT_NE(rank, nullptr);
  EXPECT_EQ(inst.ratio_rank(0), rank);
  // Real-valued costs, no duplicates: one rank per job.
  EXPECT_EQ(rank->max_rank(), inst.num_jobs() - 1);

  // A copy starts without a rank; a move takes the table along.
  Instance copy = inst;
  EXPECT_EQ(copy.ratio_rank(one_build - 1), nullptr);
  const RatioRank* copied = copy.ratio_rank(1);
  ASSERT_NE(copied, nullptr);
  const std::uint32_t* table = copied->ranks().data();
  EXPECT_NE(table, rank->ranks().data());
  const Instance moved = std::move(copy);
  ASSERT_NE(moved.ratio_rank(0), nullptr);
  EXPECT_EQ(moved.ratio_rank(0)->ranks().data(), table);
}

TEST(RatioRank, PoolsMatchTheComparatorSortOnRealValuedCosts) {
  // U[1, 1000) draws real-valued costs, so cross products round. Few
  // machines give pools of about 1000 jobs (the radix path), many give
  // pools of about 30 (the std::sort path).
  for (const std::size_t per_group : {2u, 60u}) {
    const Instance inst = gen::two_cluster_uniform(per_group, per_group,
                                                   4000, 1.0, 1000.0, 11);
    const Schedule s(inst, gen::random_assignment(inst, 12));
    ASSERT_NE(build_rank(inst), nullptr);
    expect_rank_pools_match(s, 13, 40);
  }
}

TEST(RatioRank, DuplicateJobsKeepAscendingIdUnderBothOrders) {
  // 3000 jobs drawn from five cost pairs, so most jobs have exact
  // duplicates. They share a rank, and only the job id orders them: the
  // gather order is not id order, so a rank path that lost the id
  // tie-break (or reversed it for (1, 0)) fails here.
  const std::vector<std::pair<Cost, Cost>> kinds = {
      {1.5, 2.0}, {3.0, 1.0}, {5.0, 7.0}, {2.0, 9.0}, {7.25, 7.25}};
  stats::Rng rng(21);
  std::vector<Cost> row0;
  std::vector<Cost> row1;
  for (int j = 0; j < 3000; ++j) {
    const auto& kind = kinds[rng.below(kinds.size())];
    row0.push_back(kind.first);
    row1.push_back(kind.second);
  }
  for (const std::size_t per_group : {2u, 100u}) {
    const Instance inst = Instance::clustered({per_group, per_group},
                                              {row0, row1});
    const Schedule s(inst, gen::random_assignment(inst, 22));
    const RatioRank* rank = build_rank(inst);
    ASSERT_NE(rank, nullptr);
    EXPECT_EQ(rank->max_rank(), kinds.size() - 1);
    expect_rank_pools_match(s, 23, 40);
  }
}

/// balance() on an instance whose rank the guard refused must take the
/// comparator path: the same split pooled_jobs, sort_by_group_ratio and
/// the Algorithm 5 / 6 deal give.
void expect_reference_balance(const Instance& inst, MachineId a,
                              MachineId b) {
  const Assignment before = Assignment::all_on(inst.num_jobs(), a);
  Schedule s(inst, before);
  Schedule expected(inst, before);
  std::vector<JobId> to_a;
  std::vector<JobId> to_b;
  const GroupId own = inst.group_of(a);
  if (own == inst.group_of(b)) {
    Cost dealt_a = 0.0;
    Cost dealt_b = 0.0;
    for (const JobId j : comparator_pool(expected, a, b, own, 1 - own)) {
      if (dealt_a <= dealt_b) {
        to_a.push_back(j);
        dealt_a += inst.cost(a, j);
      } else {
        to_b.push_back(j);
        dealt_b += inst.cost(b, j);
      }
    }
    GreedyPairBalanceKernel().balance(s, a, b);
  } else {
    pair_clb2c_split(inst, a, b, pooled_jobs(expected, a, b), to_a, to_b);
    PairClb2cKernel().balance(s, a, b);
  }
  Cost load_a = 0.0;
  Cost load_b = 0.0;
  for (const JobId j : to_a) load_a += inst.cost(a, j);
  for (const JobId j : to_b) load_b += inst.cost(b, j);
  if (!split_is_load_neutral(expected, a, b, load_a, load_b)) {
    apply_split(expected, a, b, to_a, to_b);
  }
  for (JobId j = 0; j < inst.num_jobs(); ++j) {
    EXPECT_EQ(s.machine_of(j), expected.machine_of(j)) << "job " << j;
  }
}

TEST(RatioRank, GuardRefusesEqualRatiosFromDifferentCostsAndNearTies) {
  // (2, 4) and (1, 2): one ratio, different costs, so the comparator ties
  // them by id although they are no duplicates.
  std::vector<Cost> row0;
  std::vector<Cost> row1;
  for (int j = 0; j < 40; ++j) {
    row0.push_back(j % 2 == 0 ? 2.0 : 1.0);
    row1.push_back(j % 2 == 0 ? 4.0 : 2.0);
    row0.push_back(1.0 + j);
    row1.push_back(3.0 + (j % 7));
  }
  const Instance equal_ratios = Instance::clustered({2, 2}, {row0, row1});
  // A 1-ulp near tie: computed products differ by less than the guard gap.
  row0.assign({1.0, std::nextafter(1.0, 2.0), 4.0, 0.5, 9.0, 2.0});
  row1.assign({3.0, 3.0, 1.0, 6.0, 2.0, 2.0});
  const Instance near_tie = Instance::clustered({2, 2}, {row0, row1});

  for (const Instance* inst : {&equal_ratios, &near_tie}) {
    EXPECT_EQ(build_rank(*inst), nullptr);
    EXPECT_EQ(inst->ratio_rank(RatioRank::sort_work(1000)), nullptr);
    const Schedule s(*inst, gen::random_assignment(*inst, 31));
    expect_rank_pools_match(s, 32, 12);
    expect_reference_balance(*inst, 0, 1);
    expect_reference_balance(*inst, 0, 2);
    expect_reference_balance(*inst, 3, 1);
  }
  // Only two-group instances are ranked.
  const Instance three = gen::multi_cluster_uniform({2, 2, 2}, 50, 1.0, 9.0, 4);
  EXPECT_EQ(build_rank(three), nullptr);
}

TEST(RatioRank, GuardRefusesNonPositiveAndNonFiniteMappedCosts) {
  // The mapped store does not check O(jobs) cost bytes, so write a valid
  // .dlbi and overwrite one marked cost of group 0. The marked cost is not
  // the largest, so the header's cached max_cost does not hold its bytes.
  constexpr Cost kMarked = 1234.5678;
  std::vector<Cost> row0;
  std::vector<Cost> row1;
  for (int j = 0; j < 12; ++j) {
    row0.push_back(j == 5 ? kMarked : 2.0 + j);
    row1.push_back(j == 0 ? 5000.0 : 14.0 - j);
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dlb_test_rank_cost_" + std::to_string(::getpid()) + ".dlbi"))
          .string();
  core::save_dlbi(Instance::clustered({2, 2}, {row0, row1}), path);
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in), {});
  }
  char marked[sizeof(Cost)];
  std::memcpy(marked, &kMarked, sizeof(Cost));
  const std::size_t at = good.find(std::string(marked, sizeof(Cost)));
  ASSERT_NE(at, std::string::npos);

  for (const Cost bad : {0.0, -3.0, std::numeric_limits<Cost>::quiet_NaN(),
                         std::numeric_limits<Cost>::infinity()}) {
    std::string patched = good;
    std::memcpy(patched.data() + at, &bad, sizeof(Cost));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(patched.data(), static_cast<std::streamsize>(patched.size()));
    }
    const core::InstanceStore store = core::InstanceStore::open_mapped(path);
    const Instance& inst = store.instance();
    ASSERT_TRUE(std::memcmp(&inst.group_row(0)[5], &bad, sizeof(Cost)) == 0);
    EXPECT_EQ(build_rank(inst), nullptr) << "cost " << bad;
    expect_reference_balance(inst, 0, 1);
    expect_reference_balance(inst, 0, 2);
  }
  std::filesystem::remove(path);
}

TEST(RatioRank, OneBuildIsPublishedToEveryPoolWorker) {
  // Four threads sort pools of one instance at once: one of them crosses
  // the threshold and builds, the others keep the comparator path until
  // they see the rank ready. Every pool matches the reference either way.
  const Instance inst = gen::two_cluster_uniform(6, 6, 6000, 1.0, 1000.0, 41);
  const Schedule s(inst, gen::random_assignment(inst, 42));
  constexpr int kThreads = 4;
  std::vector<const RatioRank*> seen(kThreads, nullptr);
  std::vector<int> mismatches(kThreads, 0);
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        stats::Rng rng(43 + t);
        PairScratch scratch;
        for (int call = 0; call < 60; ++call) {
          const auto a = static_cast<MachineId>(rng.below(12));
          const auto b = static_cast<MachineId>((a + 1 + rng.below(11)) % 12);
          const GroupId num = inst.group_of(a);
          ratio_sorted_pool(s, a, b, num, 1 - num, scratch);
          if (scratch.pool != comparator_pool(s, a, b, num, 1 - num)) {
            ++mismatches[t];
          }
        }
        seen[t] = inst.ratio_rank(0);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    EXPECT_NE(seen[t], nullptr) << "thread " << t;
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
}

// ----- the shared row walk -----

/// Two-cluster instance ({2, 2} machines) with real-valued costs and one
/// type per job. With `refuse_rank`, jobs 0 and 1 get equal ratios from
/// different costs, (2, 4) and (1, 2), so the rank guard refuses the
/// instance; otherwise the rank is built before any kernel runs.
Instance walk_instance(std::size_t jobs, bool refuse_rank) {
  const Instance base = gen::two_cluster_uniform(2, 2, jobs, 1.0, 1000.0, 51);
  std::vector<Cost> row0(base.group_row(0).begin(), base.group_row(0).end());
  std::vector<Cost> row1(base.group_row(1).begin(), base.group_row(1).end());
  if (refuse_rank) {
    row0[0] = 2.0;
    row1[0] = 4.0;
    row0[1] = 1.0;
    row1[1] = 2.0;
  }
  Instance inst = Instance::clustered({2, 2}, {row0, row1});
  inst.infer_job_types();
  return inst;
}

TEST(PairKernels, PoolIgnoresRowLinkOrder) {
  // Two schedules with one assignment, attached in opposite job orders, so
  // every machine's linked row runs the other way round. The accumulators
  // are then overwritten with one set of bits: only the row order differs.
  // Every kernel must split, load and fingerprint them identically, for
  // pools above and below the radix cutoff (about 400 and 12 jobs per
  // pair), with the ratio rank built and refused.
  const std::vector<std::pair<MachineId, MachineId>> pairs = {
      {0, 1}, {2, 3}, {0, 2}, {3, 1}, {1, 2}, {2, 0}, {1, 0}, {3, 2}};
  const KernelRegistry& registry = kernel_registry();
  std::map<std::string, int> balanced;
  for (const std::size_t jobs : {800u, 24u}) {
    for (const bool refuse_rank : {false, true}) {
      const Instance inst = walk_instance(jobs, refuse_rank);
      ASSERT_EQ(build_rank(inst) == nullptr, refuse_rank);
      const Assignment assignment = gen::random_assignment(inst, 52);
      for (const std::string& name : registry.names()) {
        SCOPED_TRACE(name + " jobs=" + std::to_string(jobs) +
                     (refuse_rank ? " rank refused" : " rank built"));
        Schedule forward(inst, assignment);
        Schedule backward(inst);
        for (JobId j = static_cast<JobId>(inst.num_jobs()); j-- > 0;) {
          backward.assign(j, assignment.machine_of(j));
        }
        std::vector<Cost> loads(forward.num_machines());
        for (MachineId i = 0; i < loads.size(); ++i) loads[i] = forward.load(i);
        backward.restore_loads(loads);
        ASSERT_NE(*forward.jobs_on(0).begin(), *backward.jobs_on(0).begin());

        const PairKernel& kernel = registry.get(name);
        kernel.prepare(forward);
        kernel.prepare(backward);
        for (int round = 0; round < 2; ++round) {
          for (const auto& [a, b] : pairs) {
            bool changed = false;
            try {
              changed = kernel.balance(forward, a, b);
            } catch (const std::invalid_argument&) {
              // Outside the kernel's domain (cluster roles, pool size).
              EXPECT_THROW(kernel.balance(backward, a, b),
                           std::invalid_argument);
              continue;
            }
            const std::vector<JobId> to_a = pair_scratch().to_a;
            const std::vector<JobId> to_b = pair_scratch().to_b;
            EXPECT_EQ(kernel.balance(backward, a, b), changed);
            EXPECT_EQ(pair_scratch().to_a, to_a);
            EXPECT_EQ(pair_scratch().to_b, to_b);
            for (MachineId i = 0; i < forward.num_machines(); ++i) {
              EXPECT_EQ(forward.load(i), backward.load(i)) << "machine " << i;
            }
            EXPECT_EQ(forward.fingerprint(), backward.fingerprint());
            EXPECT_EQ(forward.migrations(), backward.migrations());
            ++balanced[name];
          }
        }
      }
    }
  }
  // Every registered kernel ran somewhere in its domain.
  for (const std::string& name : registry.names()) {
    EXPECT_GT(balanced[name], 0) << name;
  }
}

}  // namespace
}  // namespace dlb::pairwise
