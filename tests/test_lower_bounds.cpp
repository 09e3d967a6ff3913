#include "core/lower_bounds.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "centralized/exact_bnb.hpp"
#include "check/case_gen.hpp"
#include "core/generators.hpp"
#include "core/instance_store.hpp"
#include "stats/rng.hpp"

namespace dlb {
namespace {

TEST(LowerBounds, MaxMinCostPicksHardestJob) {
  const Instance inst = Instance::unrelated({{10.0, 1.0}, {4.0, 8.0}});
  // Job 0 best = 4, job 1 best = 1 -> bound 4.
  EXPECT_DOUBLE_EQ(max_min_cost_bound(inst), 4.0);
}

TEST(LowerBounds, MinWorkAveragesCheapestCosts) {
  const Instance inst = Instance::unrelated({{2.0, 6.0}, {4.0, 2.0}});
  EXPECT_DOUBLE_EQ(min_work_bound(inst), (2.0 + 2.0) / 2.0);
}

TEST(LowerBounds, FractionalTwoClusterBalancedCase) {
  // 1+1 machines; one job each way: costs symmetric.
  const Instance inst =
      Instance::clustered({1, 1}, {{1.0, 4.0}, {4.0, 1.0}});
  // Put job 0 fully on cluster 1 and job 1 fully on cluster 2: max(1,1)=1.
  EXPECT_DOUBLE_EQ(two_cluster_fractional_opt(inst), 1.0);
}

TEST(LowerBounds, FractionalSplitsTheCrossingJob) {
  // One machine per cluster, a single job costing 1 on both: fractional
  // optimum splits it in half.
  const Instance inst = Instance::clustered({1, 1}, {{1.0}, {1.0}});
  EXPECT_DOUBLE_EQ(two_cluster_fractional_opt(inst), 0.5);
}

TEST(LowerBounds, FractionalRespectsClusterSizes) {
  // Cluster 1 has 4 machines, cluster 2 has 1; identical costs. All work on
  // cluster 1 would be W/4, all on cluster 2 W/1; the optimum spreads 4/5
  // of the work on cluster 1: W * (1/5).
  const Instance inst =
      Instance::clustered({4, 1}, {{10.0, 10.0}, {10.0, 10.0}});
  EXPECT_NEAR(two_cluster_fractional_opt(inst), 4.0, 1e-9);
}

TEST(LowerBounds, FractionalRejectsWrongShape) {
  const Instance identical = Instance::identical(3, {1.0});
  EXPECT_THROW((void)two_cluster_fractional_opt(identical),
               std::invalid_argument);
  const Instance related = Instance::related({1.0, 2.0}, {1.0});
  EXPECT_THROW((void)two_cluster_fractional_opt(related),
               std::invalid_argument);
}

TEST(LowerBounds, CombinedBoundIsMaxOfParts) {
  const Instance inst = gen::two_cluster_uniform(3, 2, 12, 1.0, 10.0, 5);
  const Cost combined = makespan_lower_bound(inst);
  EXPECT_GE(combined, max_min_cost_bound(inst));
  EXPECT_GE(combined, min_work_bound(inst));
  EXPECT_GE(combined, two_cluster_fractional_opt(inst) - 1e-12);
}

class BoundsVsExactSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundsVsExactSweep, NoBoundExceedsTheOptimum) {
  // Small random two-cluster instances: every lower bound must be <= OPT.
  const Instance inst =
      gen::two_cluster_uniform(2, 2, 8, 1.0, 20.0, GetParam());
  const auto exact = centralized::solve_exact(inst);
  ASSERT_TRUE(exact.proven);
  EXPECT_LE(makespan_lower_bound(inst), exact.optimal + 1e-9);
}

TEST_P(BoundsVsExactSweep, UnrelatedBoundsHold) {
  const Instance inst = gen::uniform_unrelated(3, 7, 1.0, 30.0, GetParam());
  const auto exact = centralized::solve_exact(inst);
  ASSERT_TRUE(exact.proven);
  EXPECT_LE(max_min_cost_bound(inst), exact.optimal + 1e-9);
  EXPECT_LE(min_work_bound(inst), exact.optimal + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsVsExactSweep,
                         ::testing::Range<std::uint64_t>(0, 12));

// ----- differential: per-group minima vs a machine-by-machine scan -----
//
// Instance::min_cost_of_job takes its minimum per group (cost times the
// group's smallest scale). The reference here scans every machine, and
// every bound built on it is recomputed from that reference. Comparisons
// are on IEEE-754 bit patterns: no tolerance.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

Cost brute_force_min_cost(const Instance& inst, JobId j) {
  Cost best = inst.cost(0, j);
  for (MachineId i = 1; i < inst.num_machines(); ++i) {
    best = std::min(best, inst.cost(i, j));
  }
  return best;
}

void expect_bounds_match_brute_force(const Instance& inst,
                                     const std::string& label) {
  Cost max_min = 0.0;
  Cost total = 0.0;
  for (JobId j = 0; j < inst.num_jobs(); ++j) {
    const Cost reference = brute_force_min_cost(inst, j);
    ASSERT_EQ(bits(inst.min_cost_of_job(j)), bits(reference))
        << label << " job " << j;
    max_min = std::max(max_min, reference);
    total += reference;
  }
  EXPECT_EQ(bits(inst.total_min_work()), bits(total)) << label;
  EXPECT_EQ(bits(max_min_cost_bound(inst)), bits(max_min)) << label;
  Cost bound =
      std::max(max_min, total / static_cast<double>(inst.num_machines()));
  if (inst.num_groups() == 2 && inst.unit_scales() &&
      !inst.machines_in_group(0).empty() &&
      !inst.machines_in_group(1).empty()) {
    bound = std::max(bound, two_cluster_fractional_opt(inst));
  }
  EXPECT_EQ(bits(makespan_lower_bound(inst)), bits(bound)) << label;
}

/// Checks `inst` as built, then as a borrowed view of its `.dlbi` file.
void expect_heap_and_mapped_match(const Instance& inst,
                                  const std::string& label) {
  expect_bounds_match_brute_force(inst, label + " (heap)");
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dlb_test_bounds_" + std::to_string(::getpid()) + ".dlbi"))
          .string();
  core::save_dlbi(inst, path);
  {
    const core::InstanceStore store = core::InstanceStore::open_mapped(path);
    ASSERT_TRUE(store.instance().is_view()) << label;
    expect_bounds_match_brute_force(store.instance(), label + " (mapped)");
  }
  std::filesystem::remove(path);
}

/// Per-machine scales drawn from a small set, so groups mix ties with
/// scales whose products round differently.
std::vector<double> random_scales(std::size_t machines, stats::Rng& rng) {
  const std::vector<double> pool = {1.0, 1.0 / 3.0, 0.7, 1.0 / 7.0,
                                    2.5, 0.1,       3.0, 1.0 / 3.0};
  std::vector<double> scales(machines);
  for (double& s : scales) s = pool[rng.below(pool.size())];
  return scales;
}

std::vector<std::vector<Cost>> random_rows(std::size_t groups,
                                           std::size_t jobs,
                                           stats::Rng& rng) {
  std::vector<std::vector<Cost>> rows(groups, std::vector<Cost>(jobs));
  for (auto& row : rows) {
    for (Cost& c : row) c = 1.0 + 999.0 * rng.uniform();
  }
  return rows;
}

TEST(LowerBoundDifferential, EveryMachineRegimeMatchesBruteForceBitwise) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    stats::Rng rng(seed);
    std::vector<std::pair<std::string, Instance>> cases;
    cases.emplace_back("identical",
                       gen::identical_uniform(5, 40, 1.0, 100.0, seed));
    cases.emplace_back(
        "related", gen::related_uniform(6, 40, 1.0, 100.0, 0.3, 3.0, seed));
    cases.emplace_back("two_cluster",
                       gen::two_cluster_uniform(4, 3, 40, 1.0, 100.0, seed));
    cases.emplace_back(
        "multi_cluster",
        gen::multi_cluster_uniform({3, 2, 4}, 40, 1.0, 100.0, seed));
    cases.emplace_back("unrelated",
                       gen::uniform_unrelated(5, 40, 1.0, 100.0, seed));
    // Clusters whose machines also carry their own scales, interleaved.
    std::vector<GroupId> group_of(9);
    for (MachineId i = 0; i < group_of.size(); ++i) group_of[i] = i % 3;
    cases.emplace_back("scaled_multi_cluster",
                       Instance(random_rows(3, 40, rng), group_of,
                                random_scales(group_of.size(), rng)));
    cases.emplace_back("scaled_two_cluster",
                       Instance(random_rows(2, 40, rng), {0, 1, 1, 0, 1},
                                random_scales(5, rng)));
    for (const auto& [name, inst] : cases) {
      expect_heap_and_mapped_match(inst,
                                   name + " seed " + std::to_string(seed));
    }
  }
}

TEST(LowerBoundDifferential, GroupsWithoutMachinesAreSkipped) {
  // Group 1 has the cheapest row but no machine: it must not count.
  stats::Rng rng(11);
  auto rows = random_rows(3, 30, rng);
  for (Cost& c : rows[1]) c = 1e-3;
  const Instance scaled(rows, {0, 2, 2, 0}, {0.7, 1.0 / 3.0, 2.5, 0.1});
  expect_heap_and_mapped_match(scaled, "empty middle group, scaled");
  // Two groups with unit scales but one of them empty: the fractional
  // two-cluster bound must stay out of makespan_lower_bound.
  const Instance unit({rows[0], rows[1]}, {0, 0, 0});
  expect_heap_and_mapped_match(unit, "empty second cluster");
}

TEST(LowerBoundDifferential, CheckRegimesMatchBruteForceBitwise) {
  for (const check::Regime regime :
       {check::Regime::kIdentical, check::Regime::kRelated,
        check::Regime::kTwoCluster, check::Regime::kMultiCluster,
        check::Regime::kUnrelated, check::Regime::kDegenerate}) {
    for (std::uint64_t index = 0; index < 6; ++index) {
      const check::GeneratedCase c = check::make_case(2027, index, regime);
      expect_heap_and_mapped_match(c.instance, c.name);
    }
  }
}

// ----- the two-cluster bound from the ratio rank -----
//
// two_cluster_fractional_opt orders the jobs by a counting pass over the
// instance's ratio rank (core/ratio_rank.hpp), and by a comparator sort
// when the rank's guard refuses the instance. The reference below is that
// comparator sort; the bound must equal it bit for bit either way.

/// The fractional optimum over the jobs taken in `order`.
Cost fractional_opt_of(const Instance& inst, const std::vector<JobId>& order) {
  const auto m1 = static_cast<double>(inst.machines_in_group(0).size());
  const auto m2 = static_cast<double>(inst.machines_in_group(1).size());
  const auto value = [&](double w1, double w2) {
    return std::max(w1 / m1, w2 / m2);
  };
  double work1 = 0.0;
  double work2 = 0.0;
  for (const JobId j : order) work2 += inst.group_cost(1, j);
  double best = value(work1, work2);
  for (const JobId j : order) {
    const double a = inst.group_cost(0, j);
    const double b = inst.group_cost(1, j);
    const double x =
        std::clamp((work2 * m1 - work1 * m2) / (a * m2 + b * m1), 0.0, 1.0);
    best = std::min(best, value(work1 + x * a, work2 - x * b));
    work1 += a;
    work2 -= b;
    best = std::min(best, value(work1, work2));
  }
  return best;
}

Cost comparator_fractional_opt(const Instance& inst) {
  std::vector<JobId> order(inst.num_jobs());
  for (JobId j = 0; j < order.size(); ++j) order[j] = j;
  std::sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    return inst.group_cost(0, a) * inst.group_cost(1, b) <
           inst.group_cost(0, b) * inst.group_cost(1, a);
  });
  return fractional_opt_of(inst, order);
}

/// The bound equals the reference, and the call leaves the rank built
/// (`ranked`) or refused.
void expect_bound_from_rank(const Instance& inst, bool ranked,
                            const std::string& label) {
  const Cost bound = two_cluster_fractional_opt(inst);
  EXPECT_EQ(inst.ratio_rank(0) != nullptr, ranked) << label;
  EXPECT_EQ(bits(bound), bits(comparator_fractional_opt(inst))) << label;
  // A second call reads the rank the first one built.
  EXPECT_EQ(bits(two_cluster_fractional_opt(inst)), bits(bound)) << label;
}

/// 3000 jobs drawn from five cost pairs: most jobs have exact duplicates,
/// which share a rank and which the comparator sort leaves in any order.
Instance duplicate_heavy_instance(std::size_t m1, std::size_t m2) {
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
  return Instance::clustered({m1, m2}, {row0, row1});
}

TEST(LowerBoundFromRank, RealValuedCostsMatchTheComparatorBitwise) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const std::size_t jobs : {2u, 40u, 5000u}) {
      const Instance inst =
          gen::two_cluster_uniform(3 + seed, 7 - seed, jobs, 1.0, 1000.0,
                                   seed);
      expect_bound_from_rank(inst, true,
                             "seed " + std::to_string(seed) + " jobs " +
                                 std::to_string(jobs));
      const RatioRank* rank = inst.ratio_rank(0);
      ASSERT_NE(rank, nullptr);
      EXPECT_EQ(rank->max_rank(), jobs - 1);
    }
  }
}

TEST(LowerBoundFromRank, DuplicateHeavyInstanceMatchesBitwise) {
  for (const std::size_t m : {1u, 5u}) {
    const Instance inst = duplicate_heavy_instance(m, m + 2);
    expect_bound_from_rank(inst, true, "machines " + std::to_string(m));
    const RatioRank* rank = inst.ratio_rank(0);
    ASSERT_NE(rank, nullptr);
    EXPECT_EQ(rank->max_rank(), 4u);
  }
}

TEST(LowerBoundFromRank, GuardRefusedNearTiesTakeTheComparatorSort) {
  // A 1-ulp near tie: computed cross products closer than the guard gap.
  const Instance near_tie = Instance::clustered(
      {2, 3}, {{1.0, std::nextafter(1.0, 2.0), 4.0, 0.5, 9.0, 2.0},
               {3.0, 3.0, 1.0, 6.0, 2.0, 2.0}});
  expect_bound_from_rank(near_tie, false, "1-ulp near tie");
  // Jobs 0 and 1 tie under the comparator (equal rounded cross products),
  // which keeps them in id order, while their quotients put job 1 first.
  // Taken in the quotients' order, the bound has other bits.
  const Instance rounded_tie = Instance::clustered(
      {1, 2}, {{8.522354775035154, 79.8958834581187, 0.5, 40.0},
               {3.6082190275146484, 33.82654847439012, 9.0, 1.0}});
  ASSERT_EQ(rounded_tie.group_cost(0, 0) * rounded_tie.group_cost(1, 1),
            rounded_tie.group_cost(0, 1) * rounded_tie.group_cost(1, 0));
  ASSERT_GT(rounded_tie.group_cost(0, 0) / rounded_tie.group_cost(1, 0),
            rounded_tie.group_cost(0, 1) / rounded_tie.group_cost(1, 1));
  ASSERT_NE(bits(fractional_opt_of(rounded_tie, {2, 1, 0, 3})),
            bits(comparator_fractional_opt(rounded_tie)));
  expect_bound_from_rank(rounded_tie, false, "tie of rounded products");
}

TEST(LowerBoundFromRank, MappedInstanceMatchesBitwise) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dlb_test_rank_bound_" + std::to_string(::getpid()) + ".dlbi"))
          .string();
  for (const Instance& inst :
       {gen::two_cluster_uniform(6, 10, 4000, 1.0, 1000.0, 5),
        duplicate_heavy_instance(4, 3)}) {
    core::save_dlbi(inst, path);
    {
      const core::InstanceStore store = core::InstanceStore::open_mapped(path);
      ASSERT_TRUE(store.instance().is_view());
      expect_bound_from_rank(store.instance(), true, "mapped");
      EXPECT_EQ(bits(two_cluster_fractional_opt(store.instance())),
                bits(comparator_fractional_opt(inst)));
    }
    std::filesystem::remove(path);
  }
}

}  // namespace
}  // namespace dlb
