#include "check/suite.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>

#include "core/instance_io.hpp"

namespace dlb::check {
namespace {

std::string serialized(const Instance& instance) {
  std::stringstream buffer;
  io::save_instance(instance, buffer);
  return buffer.str();
}

TEST(CaseGen, SameSeedAndIndexReproduceTheCaseExactly) {
  for (std::uint64_t index = 0; index < 18; ++index) {
    const GeneratedCase a = make_case(42, index);
    const GeneratedCase b = make_case(42, index);
    EXPECT_EQ(serialized(a.instance), serialized(b.instance));
    EXPECT_EQ(a.initial, b.initial);
    EXPECT_EQ(a.name, b.name);
  }
}

TEST(CaseGen, DifferentSeedsProduceDifferentCases) {
  const GeneratedCase a = make_case(1, 0);
  const GeneratedCase b = make_case(2, 0);
  EXPECT_NE(serialized(a.instance), serialized(b.instance));
}

TEST(CaseGen, CyclesThroughEveryRegime) {
  std::set<Regime> seen;
  for (std::uint64_t index = 0; index < kNumRegimes; ++index) {
    seen.insert(make_case(7, index).regime);
  }
  EXPECT_EQ(seen.size(), kNumRegimes);
}

TEST(CaseGen, PinnedRegimeIsHonoured) {
  for (std::uint64_t index = 0; index < 6; ++index) {
    const GeneratedCase c = make_case(7, index, Regime::kTwoCluster);
    EXPECT_EQ(c.regime, Regime::kTwoCluster);
    EXPECT_EQ(c.instance.num_groups(), 2u);
    EXPECT_TRUE(c.instance.unit_scales());
  }
}

TEST(CaseGen, DegenerateRegimeCoversTheHistoricalCrashShapes) {
  bool saw_zero_jobs = false;
  bool saw_one_machine = false;
  bool saw_empty_group = false;
  for (std::uint64_t index = 0; index < 9; ++index) {
    const GeneratedCase c = make_case(11, index, Regime::kDegenerate);
    saw_zero_jobs |= c.instance.num_jobs() == 0;
    saw_one_machine |= c.instance.num_machines() == 1;
    for (GroupId g = 0; g < c.instance.num_groups(); ++g) {
      saw_empty_group |= c.instance.machines_in_group(g).empty();
    }
  }
  EXPECT_TRUE(saw_zero_jobs);
  EXPECT_TRUE(saw_one_machine);
  EXPECT_TRUE(saw_empty_group);
}

TEST(CaseGen, RegimeNamesRoundTrip) {
  for (std::uint64_t index = 0; index < kNumRegimes; ++index) {
    const Regime regime = make_case(1, index).regime;
    EXPECT_EQ(regime_by_name(regime_name(regime)), regime);
  }
  EXPECT_THROW((void)regime_by_name("no-such-regime"), std::invalid_argument);
}

TEST(Suite, SmallSweepPassesEveryOracle) {
  SuiteOptions options;
  options.seed = 42;
  options.cases = 60;
  const SuiteSummary summary = run_suite(options);
  EXPECT_TRUE(summary.ok()) << summary.failures.size() << " failures, e.g. "
                            << (summary.failures.empty()
                                    ? ""
                                    : summary.failures.front().report);
  EXPECT_EQ(summary.cases_run, 60u);
  EXPECT_GT(summary.exact_solved, 0u);
  EXPECT_GT(summary.engine_runs, 0u);
  EXPECT_GT(summary.async_runs, 0u);
  // The rotation injected faults and the runners survived them.
  EXPECT_GT(summary.faults.total(), 0u);
}

TEST(Suite, EveryPinnedFaultPlanPasses) {
  for (const char* plan :
       {"none", "drop", "delay", "duplicate", "reorder", "chaos"}) {
    SuiteOptions options;
    options.seed = 42;
    options.cases = 18;
    options.faults = plan;
    const SuiteSummary summary = run_suite(options);
    EXPECT_TRUE(summary.ok())
        << plan << ": "
        << (summary.failures.empty() ? ""
                                     : summary.failures.front().report);
  }
}

TEST(Suite, PinnedRegimeSweepRunsOnlyThatRegime) {
  SuiteOptions options;
  options.seed = 9;
  options.cases = 12;
  options.regime = Regime::kDegenerate;
  const SuiteSummary summary = run_suite(options);
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(summary.cases_run, 12u);
}

TEST(Suite, UnknownFaultPlanNameThrows) {
  SuiteOptions options;
  options.cases = 1;
  options.faults = "gremlins";
  EXPECT_THROW((void)run_suite(options), std::invalid_argument);
}

}  // namespace
}  // namespace dlb::check
