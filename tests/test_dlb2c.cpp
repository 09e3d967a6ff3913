#include "dist/dlb2c.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "centralized/clb2c.hpp"
#include "centralized/exact_bnb.hpp"
#include "core/generators.hpp"
#include "core/lower_bounds.hpp"
#include "core/validation.hpp"
#include "dist/convergence.hpp"

namespace dlb::dist {
namespace {

TEST(Dlb2cKernel, RejectsWrongInstanceShape) {
  const Instance identical = Instance::identical(3, {1.0, 2.0});
  Schedule s(identical, Assignment::all_on(2, 0));
  const Dlb2cKernel kernel;
  EXPECT_THROW(kernel.balance(s, 0, 1), std::invalid_argument);
  // Two empty machines still meet the shape check first.
  EXPECT_THROW(kernel.balance(s, 1, 2), std::invalid_argument);
}

TEST(Dlb2cKernel, EmptyPairChangesNothing) {
  // 3+2 machines, every job on machine 0. Machine 1 held two jobs and gave
  // them back, so its load is a rounding residue of that history.
  const Instance inst = Instance::clustered(
      {3, 2}, {{0.1, 0.2, 0.7, 0.3}, {0.9, 0.4, 0.1, 0.6}});
  Schedule s(inst, Assignment::all_on(4, 0));
  s.move(0, 1);
  s.move(1, 1);
  s.move(0, 0);
  s.move(1, 0);
  ASSERT_TRUE(s.jobs_on(1).empty());
  ASSERT_NE(s.load(1), 0.0);
  const std::vector<MachineId> assignment = s.assignment().raw();
  const std::uint64_t migrations = s.migrations();
  std::vector<std::uint64_t> load_bits;
  for (MachineId i = 0; i < 5; ++i) {
    load_bits.push_back(std::bit_cast<std::uint64_t>(s.load(i)));
  }
  const Dlb2cKernel kernel;
  // Same-cluster pairs in either cluster, and cross-cluster pairs.
  for (const auto& [a, b] : {std::pair<MachineId, MachineId>{1, 2},
                             {3, 4}, {1, 3}, {4, 2}}) {
    EXPECT_FALSE(kernel.balance(s, a, b)) << a << "," << b;
  }
  EXPECT_EQ(s.assignment().raw(), assignment);
  EXPECT_EQ(s.migrations(), migrations);
  for (MachineId i = 0; i < 5; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.load(i)), load_bits[i]) << i;
  }
}

TEST(Dlb2cKernel, DispatchesOnClusterMembership) {
  // 2+2 machines: same-cluster pair balances evenly; cross-cluster pair
  // sends jobs to their better cluster.
  const Instance inst = Instance::clustered(
      {2, 2}, {{1.0, 1.0, 9.0, 9.0}, {9.0, 9.0, 1.0, 1.0}});
  const Dlb2cKernel kernel;

  Schedule same(inst, Assignment::all_on(4, 0));
  kernel.balance(same, 0, 1);
  EXPECT_EQ(same.jobs_on(0).size(), 2u);
  EXPECT_EQ(same.jobs_on(1).size(), 2u);

  Schedule cross(inst, Assignment::all_on(4, 0));
  kernel.balance(cross, 0, 2);
  // Jobs 2 and 3 run 9x faster on cluster 2: they cross over.
  EXPECT_EQ(inst.group_of(cross.machine_of(2)), 1u);
  EXPECT_EQ(inst.group_of(cross.machine_of(3)), 1u);
}

TEST(Dlb2c, ImprovesAPiledDistribution) {
  const Instance inst = gen::two_cluster_uniform(4, 2, 48, 1.0, 100.0, 1);
  Schedule s(inst, Assignment::all_on(48, 0));
  const Cost initial = s.makespan();
  EngineOptions options;
  options.max_exchanges = 2'000;
  stats::Rng rng(2);
  const RunResult result = run_dlb2c(s, options, rng);
  EXPECT_LT(result.final_makespan, initial / 2.0);
  EXPECT_TRUE(is_complete_partition(s));
}

TEST(Dlb2c, DeterministicGivenSeed) {
  const Instance inst = gen::two_cluster_uniform(3, 3, 30, 1.0, 50.0, 3);
  EngineOptions options;
  options.max_exchanges = 500;
  Schedule s1(inst, gen::random_assignment(inst, 4));
  Schedule s2(inst, gen::random_assignment(inst, 4));
  stats::Rng rng1(5);
  stats::Rng rng2(5);
  run_dlb2c(s1, options, rng1);
  run_dlb2c(s2, options, rng2);
  EXPECT_EQ(s1.assignment(), s2.assignment());
}

class Dlb2cTheorem7Sweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Dlb2cTheorem7Sweep, StableStatesAre2Approximations) {
  // Theorem 7: IF DLB2C reaches a stable schedule, it is a 2-approximation
  // (given max p <= OPT). With several machines per cluster DLB2C rarely
  // reaches a strict fixed point (Proposition 8), so the sweep alternates
  // 1+1 and 2+2 cluster shapes: the former always stabilises, the latter is
  // allowed to skip.
  const Instance inst =
      GetParam() % 2 == 0
          ? gen::two_cluster_uniform(1, 1, 10, 1.0, 6.0, GetParam())
          : gen::two_cluster_uniform(2, 2, 10, 1.0, 6.0, GetParam());
  Schedule s(inst, gen::random_assignment(inst, GetParam() + 50));
  const Dlb2cKernel kernel;
  if (!run_to_stability(s, kernel, 200)) {
    GTEST_SKIP() << "instance did not stabilise (Proposition 8 allows this)";
  }
  const auto exact = centralized::solve_exact(inst);
  ASSERT_TRUE(exact.proven);
  const Cost reference = std::max(exact.optimal, inst.max_cost());
  EXPECT_LE(s.makespan(), 2.0 * reference + 1e-9)
      << "stable DLB2C schedule broke the Theorem 7 bound";
}

INSTANTIATE_TEST_SUITE_P(Seeds, Dlb2cTheorem7Sweep,
                         ::testing::Range<std::uint64_t>(0, 20));

class Dlb2cEquilibriumSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Dlb2cEquilibriumSweep, DynamicEquilibriumStaysNearCent) {
  // Section VII-B: even without convergence, after a few exchanges per
  // machine the makespan hovers near CLB2C's ("cent"); assert the paper's
  // 1.5 * cent threshold is reached within the simulated horizon.
  const Instance inst =
      gen::two_cluster_uniform(16, 8, 192, 1.0, 1000.0, GetParam());
  const Cost cent = centralized::clb2c_schedule(inst).makespan();
  Schedule s(inst, gen::random_assignment(inst, GetParam() + 11));
  EngineOptions options;
  options.max_exchanges = 24 * 40;  // 40 exchanges per machine
  options.stop_threshold = 1.5 * cent;
  stats::Rng rng(GetParam() + 22);
  const RunResult result = run_dlb2c(s, options, rng);
  EXPECT_TRUE(result.reached_threshold)
      << "did not reach 1.5x cent within 40 exchanges/machine";
}

INSTANTIATE_TEST_SUITE_P(Seeds, Dlb2cEquilibriumSweep,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(Dlb2c, FinalMakespanNeverBelowLowerBound) {
  const Instance inst = gen::two_cluster_uniform(8, 4, 96, 1.0, 500.0, 9);
  Schedule s(inst, gen::random_assignment(inst, 10));
  EngineOptions options;
  options.max_exchanges = 5'000;
  stats::Rng rng(11);
  const RunResult result = run_dlb2c(s, options, rng);
  EXPECT_GE(result.final_makespan, two_cluster_fractional_opt(inst) - 1e-9);
  EXPECT_GE(result.best_makespan, two_cluster_fractional_opt(inst) - 1e-9);
}

}  // namespace
}  // namespace dlb::dist
