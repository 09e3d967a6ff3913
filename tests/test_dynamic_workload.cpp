#include "dist/dynamic_workload.hpp"

#include <gtest/gtest.h>

#include "core/generators.hpp"
#include "dist/dlb2c.hpp"

namespace dlb::dist {
namespace {

Instance pool_instance(std::uint64_t seed) {
  // Big job pool: 384 initially active + 50 epochs * 32 churn = 1984 jobs.
  return gen::two_cluster_uniform(8, 4, 2048, 1.0, 100.0, seed);
}

TEST(DynamicWorkload, RejectsUndersizedJobPool) {
  const Instance tiny = gen::two_cluster_uniform(2, 2, 10, 1.0, 10.0, 1);
  const Dlb2cKernel kernel;
  DynamicOptions options;
  EXPECT_THROW(run_dynamic(tiny, kernel, options), std::invalid_argument);
}

TEST(DynamicWorkload, RejectsChurnAboveTheActiveSet) {
  // churn_per_epoch > initial_active used to drain the active set mid-
  // epoch and feed rng.below(0) — undefined behaviour. It must instead be
  // rejected up front with the single error shape naming the field.
  const Instance inst = pool_instance(3);
  const Dlb2cKernel kernel;
  DynamicOptions options;
  options.initial_active = 16;
  options.churn_per_epoch = 17;
  options.epochs = 2;
  try {
    (void)run_dynamic(inst, kernel, options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "run_dynamic: invalid DynamicOptions.churn_per_epoch: "
                 "must be <= initial_active (16), got 17");
  }
}

TEST(DynamicWorkload, UndersizedPoolErrorNamesTheField) {
  const Instance tiny = gen::two_cluster_uniform(2, 2, 10, 1.0, 10.0, 1);
  const Dlb2cKernel kernel;
  DynamicOptions options;
  options.initial_active = 8;
  options.churn_per_epoch = 4;
  options.epochs = 3;
  try {
    (void)run_dynamic(tiny, kernel, options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "run_dynamic: invalid DynamicOptions.initial_active: job "
                 "pool too small: initial_active + epochs * "
                 "churn_per_epoch = 20 exceeds the instance's 10 jobs");
  }
}

TEST(DynamicWorkload, ChurnEqualToActiveSetIsTheBoundaryAndRuns) {
  const Instance inst = pool_instance(5);
  const Dlb2cKernel kernel;
  DynamicOptions options;
  options.initial_active = 8;
  options.churn_per_epoch = 8;  // Drains to empty, then refills.
  options.epochs = 4;
  options.exchanges_per_epoch = 8;
  const auto history = run_dynamic(inst, kernel, options);
  ASSERT_EQ(history.size(), 4u);
  for (const auto& stats : history) {
    EXPECT_EQ(stats.active_jobs, 8u);
  }
}

TEST(DynamicWorkload, ReportsOneEntryPerEpochWithStableActiveCount) {
  const Instance inst = pool_instance(2);
  const Dlb2cKernel kernel;
  DynamicOptions options;
  options.epochs = 20;
  options.seed = 3;
  const auto history = run_dynamic(inst, kernel, options);
  ASSERT_EQ(history.size(), 20u);
  for (const auto& e : history) {
    EXPECT_EQ(e.active_jobs, options.initial_active);
    EXPECT_GT(e.lower_bound, 0.0);
    EXPECT_GE(e.makespan, e.lower_bound - 1e-9);
  }
}

TEST(DynamicWorkload, PeriodicBalancingKeepsTheRatioLow) {
  // Section IV's claim: run periodically and dynamicity is absorbed. After
  // a warm-up the per-epoch ratio to the fractional LB should stay small
  // even though 32 of ~384 jobs churn every epoch.
  const Instance inst = pool_instance(4);
  const Dlb2cKernel kernel;
  DynamicOptions options;
  options.epochs = 40;
  options.seed = 5;
  const auto history = run_dynamic(inst, kernel, options);
  double worst_late_ratio = 0.0;
  for (std::size_t e = 10; e < history.size(); ++e) {
    worst_late_ratio = std::max(worst_late_ratio, history[e].ratio());
  }
  EXPECT_LE(worst_late_ratio, 2.0);
}

TEST(DynamicWorkload, NoBalancingBudgetDegrades) {
  const Instance inst = pool_instance(6);
  const Dlb2cKernel kernel;
  DynamicOptions balanced;
  balanced.epochs = 30;
  balanced.seed = 7;
  DynamicOptions frozen = balanced;
  frozen.exchanges_per_epoch = 0;

  const auto with = run_dynamic(inst, kernel, balanced);
  const auto without = run_dynamic(inst, kernel, frozen);
  // Compare steady-state tail averages.
  auto tail_mean = [](const std::vector<EpochStats>& h) {
    double total = 0.0;
    for (std::size_t e = h.size() / 2; e < h.size(); ++e) {
      total += h[e].ratio();
    }
    return total / static_cast<double>(h.size() - h.size() / 2);
  };
  EXPECT_LT(tail_mean(with), tail_mean(without));
}

TEST(DynamicWorkload, MigrationTrafficIsBoundedByExchangeReach) {
  // Each exchange can migrate at most the pooled jobs of its pair (about
  // 2 * active/m); the paper itself flags this data-movement cost and
  // points to decoupling balancing from data transfer [14]. We assert the
  // structural bound, not wishful smallness.
  const Instance inst = pool_instance(8);
  const Dlb2cKernel kernel;
  DynamicOptions options;
  options.epochs = 30;
  options.seed = 9;
  const auto history = run_dynamic(inst, kernel, options);
  const double pool_bound =
      2.0 * static_cast<double>(options.initial_active) /
      static_cast<double>(inst.num_machines());
  for (const auto& e : history) {
    EXPECT_LE(static_cast<double>(e.migrations),
              static_cast<double>(options.exchanges_per_epoch) * pool_bound)
        << "epoch " << e.epoch;
  }
}

TEST(DynamicWorkload, DeterministicGivenSeed) {
  const Instance inst = pool_instance(10);
  const Dlb2cKernel kernel;
  DynamicOptions options;
  options.epochs = 10;
  options.seed = 11;
  const auto a = run_dynamic(inst, kernel, options);
  const auto b = run_dynamic(inst, kernel, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_DOUBLE_EQ(a[e].makespan, b[e].makespan);
    EXPECT_EQ(a[e].migrations, b[e].migrations);
  }
}

}  // namespace
}  // namespace dlb::dist
