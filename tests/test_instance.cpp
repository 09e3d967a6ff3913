#include "core/instance.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace dlb {
namespace {

TEST(Instance, IdenticalMachinesShareCosts) {
  const Instance inst = Instance::identical(3, {1.0, 2.0, 5.0});
  EXPECT_EQ(inst.num_machines(), 3u);
  EXPECT_EQ(inst.num_jobs(), 3u);
  EXPECT_EQ(inst.num_groups(), 1u);
  for (MachineId i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(inst.cost(i, 0), 1.0);
    EXPECT_DOUBLE_EQ(inst.cost(i, 2), 5.0);
  }
  EXPECT_TRUE(inst.unit_scales());
}

TEST(Instance, RelatedMachinesScaleBySpeed) {
  const Instance inst = Instance::related({1.0, 2.0, 4.0}, {8.0, 4.0});
  EXPECT_DOUBLE_EQ(inst.cost(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(inst.cost(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(inst.cost(2, 0), 2.0);
  EXPECT_DOUBLE_EQ(inst.cost(2, 1), 1.0);
  EXPECT_FALSE(inst.unit_scales());
}

TEST(Instance, ClusteredMachinesUseGroupRows) {
  const Instance inst =
      Instance::clustered({2, 3}, {{1.0, 10.0}, {5.0, 2.0}});
  EXPECT_EQ(inst.num_machines(), 5u);
  EXPECT_EQ(inst.num_groups(), 2u);
  EXPECT_EQ(inst.group_of(0), 0u);
  EXPECT_EQ(inst.group_of(1), 0u);
  EXPECT_EQ(inst.group_of(2), 1u);
  EXPECT_DOUBLE_EQ(inst.cost(1, 1), 10.0);
  EXPECT_DOUBLE_EQ(inst.cost(4, 1), 2.0);
  EXPECT_EQ(inst.machines_in_group(0).size(), 2u);
  EXPECT_EQ(inst.machines_in_group(1).size(), 3u);
  EXPECT_EQ(inst.machines_in_group(1)[0], 2u);
}

TEST(Instance, UnrelatedHasOneGroupPerMachine) {
  const Instance inst = Instance::unrelated({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(inst.num_groups(), 2u);
  EXPECT_DOUBLE_EQ(inst.cost(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(inst.cost(1, 0), 3.0);
}

TEST(Instance, RejectsNonPositiveCosts) {
  EXPECT_THROW(Instance::identical(2, {1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(Instance::identical(2, {1.0, -3.0}), std::invalid_argument);
}

TEST(Instance, RejectsRaggedRows) {
  EXPECT_THROW(Instance::unrelated({{1.0, 2.0}, {3.0}}),
               std::invalid_argument);
}

TEST(Instance, RejectsEmptyShapes) {
  EXPECT_THROW(Instance::identical(0, {1.0}), std::invalid_argument);
  EXPECT_THROW(Instance::clustered({2, 0}, {{1.0}, {1.0}}),
               std::invalid_argument);
  EXPECT_THROW(Instance::related({}, {1.0}), std::invalid_argument);
  EXPECT_THROW(Instance::related({0.0}, {1.0}), std::invalid_argument);
}

TEST(Instance, MaxCostAccountsForScales) {
  const Instance inst = Instance::related({0.5, 2.0}, {3.0, 7.0});
  // Slowest machine has scale 2; max base cost 7 -> 14.
  EXPECT_DOUBLE_EQ(inst.max_cost(), 14.0);
}

TEST(Instance, MinCostOfJobAndTotalMinWork) {
  const Instance inst = Instance::unrelated({{4.0, 1.0}, {2.0, 9.0}});
  EXPECT_DOUBLE_EQ(inst.min_cost_of_job(0), 2.0);
  EXPECT_DOUBLE_EQ(inst.min_cost_of_job(1), 1.0);
  EXPECT_DOUBLE_EQ(inst.total_min_work(), 3.0);
}

TEST(Instance, SetJobTypesValidatesEquality) {
  Instance inst = Instance::unrelated({{1.0, 1.0, 5.0}, {2.0, 2.0, 3.0}});
  inst.set_job_types({0, 0, 1});
  EXPECT_TRUE(inst.has_job_types());
  EXPECT_EQ(inst.num_job_types(), 2u);
  EXPECT_EQ(inst.job_type(0), 0u);
  EXPECT_EQ(inst.job_type(2), 1u);
}

TEST(Instance, SetJobTypesRejectsMismatchedRows) {
  Instance inst = Instance::unrelated({{1.0, 1.0}, {2.0, 3.0}});
  // Jobs 0 and 1 differ on machine 1, so they cannot share a type.
  EXPECT_THROW(inst.set_job_types({0, 0}), std::invalid_argument);
}

TEST(Instance, SetJobTypesRejectsSparseIds) {
  Instance inst = Instance::unrelated({{1.0, 1.0}});
  EXPECT_THROW(inst.set_job_types({0, 2}), std::invalid_argument);
  EXPECT_THROW(inst.set_job_types({0}), std::invalid_argument);
}

TEST(Instance, SetJobTypesRefusesAnIdPastTheJobCountBeforeSizingByIt) {
  // Sized by the largest id, the rule's per-type table would take 16 GB
  // here; the id is checked against the job count first.
  Instance inst = Instance::unrelated({{1.0, 1.0}});
  try {
    inst.set_job_types({0, 4000000000u});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("job 1 has type 4000000000"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(inst.has_job_types());
}

TEST(Instance, InferJobTypesGroupsEqualColumns) {
  Instance inst =
      Instance::unrelated({{1.0, 5.0, 1.0, 5.0}, {2.0, 6.0, 2.0, 6.0}});
  EXPECT_EQ(inst.infer_job_types(), 2u);
  EXPECT_EQ(inst.job_type(0), inst.job_type(2));
  EXPECT_EQ(inst.job_type(1), inst.job_type(3));
  EXPECT_NE(inst.job_type(0), inst.job_type(1));
}

TEST(Instance, InferJobTypesAllDistinct) {
  Instance inst = Instance::unrelated({{1.0, 2.0, 3.0}});
  EXPECT_EQ(inst.infer_job_types(), 3u);
}

class InstanceShapeSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(InstanceShapeSweep, CostLookupConsistentWithGroups) {
  const auto [m, n] = GetParam();
  std::vector<std::vector<Cost>> rows(m, std::vector<Cost>(n));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      rows[i][j] = static_cast<Cost>(1 + i * n + j);
    }
  }
  const Instance inst = Instance::unrelated(std::move(rows));
  for (MachineId i = 0; i < m; ++i) {
    EXPECT_EQ(inst.group_of(i), i);
    for (JobId j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(inst.cost(i, j),
                       static_cast<Cost>(1 + i * n + j));
      EXPECT_DOUBLE_EQ(inst.group_cost(i, j), inst.cost(i, j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, InstanceShapeSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{2, 5},
                      std::pair<std::size_t, std::size_t>{5, 2},
                      std::pair<std::size_t, std::size_t>{8, 8}));

}  // namespace
}  // namespace dlb
