#include "check/oracles.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "centralized/exact_bnb.hpp"
#include "check/shrink.hpp"
#include "core/generators.hpp"
#include "core/lower_bounds.hpp"
#include "dist/convergence.hpp"
#include "pairwise/basic_greedy.hpp"
#include "pairwise/greedy_pair_balance.hpp"
#include "pairwise/pair_kernel.hpp"

namespace dlb::check {
namespace {

TEST(Report, CollectsNamedFailures) {
  Report report;
  EXPECT_TRUE(report.ok());
  report.fail("some.oracle", "a detail");
  report.fail("other.oracle", "another");
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.failures().size(), 2u);
  EXPECT_EQ(report.failures()[0].oracle, "some.oracle");
  EXPECT_NE(report.to_string().find("other.oracle: another"),
            std::string::npos);
}

TEST(ScheduleStateOracle, AcceptsAConsistentSchedule) {
  const Instance inst = gen::uniform_unrelated(3, 8, 1.0, 10.0, 1);
  Schedule schedule(inst, gen::random_assignment(inst, 2));
  Report report;
  check_schedule_state(schedule, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ScheduleStateOracle, RejectsAnIncompletePartition) {
  const Instance inst = gen::uniform_unrelated(3, 8, 1.0, 10.0, 1);
  Schedule schedule(inst);  // All jobs unassigned.
  Report report;
  check_schedule_state(schedule, report);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failures().front().oracle, "state.partition");
}

TEST(ScheduleStateOracle, ChecksTheOrderOfFlaggedRowsOnly) {
  // Machine 0 is in cluster 0, machine 1 in cluster 1. Each row is
  // rewritten whole, flagged or not, in its cluster's ratio order or in
  // the reverse; only a flagged row out of order fails. The flags have a
  // reader, and are checked, once the instance's ratio rank is built.
  const Instance inst = gen::two_cluster_uniform(1, 1, 40, 1.0, 10.0, 3);
  ASSERT_NE(inst.ratio_rank(RatioRank::sort_work(inst.num_jobs())), nullptr);
  Schedule schedule(inst, gen::random_assignment(inst, 4));
  for (const bool flagged : {false, true}) {
    for (const bool reversed : {false, true}) {
      std::vector<JobId> rows[2];
      for (const MachineId i : {0u, 1u}) {
        const LoadTable::JobList row = schedule.jobs_on(i);
        rows[i].assign(row.begin(), row.end());
        pairwise::sort_by_group_ratio(inst, inst.group_of(i),
                                      inst.group_of(1 - i), rows[i]);
        if (reversed && i == 1) std::reverse(rows[i].begin(), rows[i].end());
      }
      schedule.write_split(0, rows[0], 1, rows[1], flagged);
      Report report;
      check_schedule_state(schedule, report);
      if (flagged && reversed) {
        ASSERT_EQ(report.failures().size(), 1u) << report.to_string();
        EXPECT_EQ(report.failures().front().oracle, "state.row_order");
        EXPECT_NE(report.failures().front().detail.find("machine 1"),
                  std::string::npos);
      } else {
        EXPECT_TRUE(report.ok()) << report.to_string();
      }
    }
  }
}

TEST(ScheduleStateOracle, LeavesFlagsAloneWhereTheRankIsRefused) {
  // Every job costs `ratio` times more on cluster 1, so all cross products
  // tie up to rounding: the rank refuses the instance, the comparator is
  // no order, and a flag here has no reader.
  const Instance inst =
      gen::two_cluster_extreme_ratio(1, 1, 40, 1.0, 100.0, 37.0, 1.0, 3);
  ASSERT_EQ(inst.ratio_rank(RatioRank::sort_work(inst.num_jobs())), nullptr);
  Schedule schedule(inst, gen::random_assignment(inst, 4));
  std::vector<JobId> rows[2];
  for (const MachineId i : {0u, 1u}) {
    const LoadTable::JobList row = schedule.jobs_on(i);
    rows[i].assign(row.begin(), row.end());
    pairwise::sort_by_group_ratio(inst, 0, 1, rows[i]);
    std::reverse(rows[i].begin(), rows[i].end());
  }
  schedule.write_split(0, rows[0], 1, rows[1], true);
  Report report;
  check_schedule_state(schedule, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(IoRoundtripOracle, AcceptsEveryRegimeIncludingDegenerates) {
  const Instance cases[] = {
      gen::uniform_unrelated(3, 8, 1.0, 10.0, 3),
      gen::typed_uniform(3, 9, 3, 1.0, 10.0, 4),
      Instance::identical(2, {}),               // Zero jobs.
      Instance::identical(1, {5.0, 2.0}),       // One machine.
  };
  for (const Instance& inst : cases) {
    Report report;
    check_io_roundtrip(inst, gen::random_assignment(inst, 5), report);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

// ----- kernel contract -----

TEST(KernelContractOracle, AcceptsBasicGreedy) {
  const Instance inst = gen::uniform_unrelated(4, 10, 1.0, 10.0, 6);
  Schedule schedule(inst, gen::random_assignment(inst, 7));
  Report report;
  check_kernel_contract(schedule, pairwise::BasicGreedyKernel{}, 0, 3,
                        report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

/// Deliberately broken kernel: shuttles the first pooled job to the other
/// machine every call, so an immediate second application undoes the first
/// — violating the idempotence the stable-state definition rests on.
class BrokenSwapKernel final : public pairwise::PairKernel {
 public:
  bool balance(Schedule& schedule, MachineId a,
               MachineId b) const override {
    const auto pool = pairwise::pooled_jobs(schedule, a, b);
    if (pool.empty()) return false;
    const JobId j = pool.front();
    schedule.move(j, schedule.machine_of(j) == a ? b : a);
    return true;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "broken-swap";
  }
};

/// Deliberately dishonest kernel: balances like Basic Greedy but always
/// reports "nothing changed".
class LyingKernel final : public pairwise::PairKernel {
 public:
  bool balance(Schedule& schedule, MachineId a,
               MachineId b) const override {
    (void)inner_.balance(schedule, a, b);
    return false;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "lying";
  }

 private:
  pairwise::BasicGreedyKernel inner_;
};

TEST(KernelContractOracle, CatchesANonIdempotentKernel) {
  const Instance inst = gen::identical_uniform(3, 8, 1.0, 10.0, 8);
  Schedule schedule(inst, Assignment::all_on(8, 0));
  Report report;
  check_kernel_contract(schedule, BrokenSwapKernel{}, 0, 1, report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.failures().front().oracle, "kernel.idempotent");
}

TEST(KernelContractOracle, CatchesADishonestChangedFlag) {
  const Instance inst = gen::identical_uniform(3, 8, 1.0, 10.0, 9);
  Schedule schedule(inst, Assignment::all_on(8, 0));
  Report report;
  check_kernel_contract(schedule, LyingKernel{}, 0, 1, report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.failures().front().oracle, "kernel.honesty");
}

TEST(KernelContractOracle, BrokenKernelShrinksToATinyReproducer) {
  // The acceptance path of the whole harness: seed a sizable random case,
  // let the oracle reject the mutant kernel, and greedily shrink to a
  // reproducer a human can eyeball (<= 5 jobs).
  const BrokenSwapKernel broken;
  const Property property = [&](const Instance& inst,
                                const Assignment& initial) {
    if (inst.num_machines() < 2) {
      throw std::invalid_argument("kernel contract needs a pair");
    }
    Schedule schedule(inst, initial);
    Report report;
    check_kernel_contract(schedule, broken, 0, 1, report);
    return report.ok();
  };

  const Instance inst = gen::uniform_unrelated(5, 12, 1.0, 100.0, 10);
  const Assignment initial = gen::random_assignment(inst, 11);
  ASSERT_FALSE(property(inst, initial)) << "mutant not caught";

  const ShrinkResult shrunk = shrink(inst, initial, property);
  EXPECT_FALSE(property(shrunk.instance, shrunk.initial));
  EXPECT_LE(shrunk.instance.num_jobs(), 5u);
  EXPECT_LE(shrunk.instance.num_machines(), 2u);
}

// ----- bounds and theorems -----

TEST(BoundOracles, LowerBoundsNeverExceedTheExactOptimum) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const Instance inst = gen::two_cluster_uniform(2, 2, 6, 1.0, 20.0, seed);
    const centralized::ExactResult exact = centralized::solve_exact(inst);
    ASSERT_TRUE(exact.proven);
    Report report;
    check_lower_bounds_vs_opt(inst, exact.optimal, report);
    check_lower_bound_soundness(inst, exact.optimal, report);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(BoundOracles, RejectAnImpossiblyGoodMakespan) {
  const Instance inst = gen::identical_uniform(2, 8, 5.0, 10.0, 12);
  Report report;
  // Claiming a feasible makespan of ~zero must trip the soundness oracle.
  check_lower_bound_soundness(inst, 1e-6, report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.failures().front().oracle, "bound.soundness");
}

TEST(TheoremOracles, Clb2cRespectsTheoremSix) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Instance inst = gen::two_cluster_uniform(2, 2, 7, 1.0, 10.0, seed);
    const centralized::ExactResult exact = centralized::solve_exact(inst);
    ASSERT_TRUE(exact.proven);
    Report report;
    check_clb2c_two_approx(inst, exact.optimal, report);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(TheoremOracles, StableSingleTypeIsOptimal) {
  const Instance inst = Instance::identical(3, std::vector<Cost>(9, 2.0));
  Schedule stable(inst, Assignment::all_on(9, 0));
  ASSERT_TRUE(
      dist::run_to_stability(stable, pairwise::BasicGreedyKernel{}, 50));
  Report report;
  check_stable_single_type_optimal(stable, report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(TheoremOracles, SingleTypeOracleRejectsAnImbalancedSchedule) {
  const Instance inst = Instance::identical(3, std::vector<Cost>(9, 2.0));
  // All nine jobs on one machine: makespan 18 vs the optimum 6.
  Schedule lopsided(inst, Assignment::all_on(9, 0));
  Report report;
  check_stable_single_type_optimal(lopsided, report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.failures().front().oracle, "lemma4.single_type");
}

// ----- run result consistency -----

TEST(RunResultOracle, RejectsANonMonotoneBestMakespan) {
  const Instance inst = gen::identical_uniform(3, 6, 1.0, 10.0, 13);
  dist::RunResult result;
  // Well above any lower bound of the instance, so only the monotonicity
  // oracle can fire.
  result.initial_makespan = 100.0;
  result.final_makespan = 80.0;
  result.best_makespan = 120.0;  // Worse than initial: impossible.
  Report report;
  check_run_result(result, inst, report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.failures().front().oracle, "run.best_monotone");
}

TEST(ConvergenceOracle, RejectsAFalseConvergenceClaim) {
  const Instance inst = Instance::identical(2, {4.0, 4.0});
  Schedule unstable(inst, Assignment::all_on(2, 0));
  dist::RunResult result;
  result.converged = true;  // A lie: one exchange still rebalances.
  Report report;
  check_converged_is_stable(result, unstable,
                            pairwise::BasicGreedyKernel{}, report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.failures().front().oracle, "convergence.detector");
}

}  // namespace
}  // namespace dlb::check
