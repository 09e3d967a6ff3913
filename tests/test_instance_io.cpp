#include "core/instance_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/generators.hpp"
#include "stats/rng.hpp"

namespace dlb::io {
namespace {

void expect_instances_equal(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.num_machines(), b.num_machines());
  ASSERT_EQ(a.num_jobs(), b.num_jobs());
  ASSERT_EQ(a.num_groups(), b.num_groups());
  for (MachineId i = 0; i < a.num_machines(); ++i) {
    EXPECT_EQ(a.group_of(i), b.group_of(i));
    EXPECT_DOUBLE_EQ(a.scale(i), b.scale(i));
    for (JobId j = 0; j < a.num_jobs(); ++j) {
      EXPECT_DOUBLE_EQ(a.cost(i, j), b.cost(i, j));
    }
  }
  ASSERT_EQ(a.has_job_types(), b.has_job_types());
  if (a.has_job_types()) {
    ASSERT_EQ(a.num_job_types(), b.num_job_types());
    for (JobId j = 0; j < a.num_jobs(); ++j) {
      EXPECT_EQ(a.job_type(j), b.job_type(j));
    }
  }
  ASSERT_EQ(a.has_cost_model(), b.has_cost_model());
  if (a.has_cost_model()) {
    EXPECT_EQ(a.cost_model(), b.cost_model());  // Bitwise, per-field.
  }
}

TEST(InstanceIo, RoundTripUnrelated) {
  const Instance original = gen::uniform_unrelated(4, 9, 1.0, 100.0, 3);
  std::stringstream buffer;
  save_instance(original, buffer);
  const Instance loaded = load_instance(buffer);
  expect_instances_equal(original, loaded);
}

TEST(InstanceIo, RoundTripClusteredWithScales) {
  const Instance original = gen::related_uniform(5, 6, 1.0, 10.0, 0.5, 2.0, 4);
  std::stringstream buffer;
  save_instance(original, buffer);
  const Instance loaded = load_instance(buffer);
  expect_instances_equal(original, loaded);
}

TEST(InstanceIo, RoundTripPreservesJobTypes) {
  const Instance original = gen::typed_uniform(3, 12, 4, 1.0, 9.0, 5);
  std::stringstream buffer;
  save_instance(original, buffer);
  const Instance loaded = load_instance(buffer);
  expect_instances_equal(original, loaded);
}

TEST(InstanceIo, RoundTripExactDoubleValues) {
  // max_digits10 precision: values must round-trip bit-exactly.
  const Instance original =
      Instance::identical(2, {0.1, 1.0 / 3.0, 1e-17 + 1.0});
  std::stringstream buffer;
  save_instance(original, buffer);
  const Instance loaded = load_instance(buffer);
  for (JobId j = 0; j < 3; ++j) {
    EXPECT_EQ(original.cost(0, j), loaded.cost(0, j));
  }
}

// Regression: these degenerate shapes used to die inside the Instance
// cache rebuild on load (empty cost rows / groups with no machines).
TEST(InstanceIo, RoundTripZeroJobs) {
  const Instance original = Instance::identical(3, {});
  std::stringstream buffer;
  save_instance(original, buffer);
  const Instance loaded = load_instance(buffer);
  expect_instances_equal(original, loaded);
  EXPECT_EQ(loaded.num_jobs(), 0u);
}

TEST(InstanceIo, RoundTripSingleMachine) {
  const Instance original = Instance::identical(1, {3.0, 1.0, 4.0});
  std::stringstream buffer;
  save_instance(original, buffer);
  const Instance loaded = load_instance(buffer);
  expect_instances_equal(original, loaded);
  EXPECT_EQ(loaded.num_machines(), 1u);
}

TEST(InstanceIo, RoundTripEmptyGroup) {
  // Two cost rows but every machine in group 0: group 1 exists in the
  // cost matrix yet owns no machine.
  const Instance original({{2.0, 5.0}, {1.0, 1.0}}, {0, 0}, {1.0, 1.0});
  ASSERT_TRUE(original.machines_in_group(1).empty());
  std::stringstream buffer;
  save_instance(original, buffer);
  const Instance loaded = load_instance(buffer);
  expect_instances_equal(original, loaded);
  EXPECT_TRUE(loaded.machines_in_group(1).empty());
}

// ------------------------------------------------ cost-model persistence

/// One random Dist with full-precision double parameters — the round-trip
/// must survive max_digits10 formatting for every kind.
cost::Dist random_dist(stats::Rng& rng) {
  cost::Dist dist;
  switch (rng.below(4)) {
    case 0:
      dist.kind = cost::DistKind::kDeterministic;
      dist.value = 0.25 + 4.0 * rng.uniform();
      break;
    case 1:
      dist.kind = cost::DistKind::kNormal;
      dist.sigma = rng.uniform();
      break;
    case 2:
      dist.kind = cost::DistKind::kLognormal;
      dist.sigma = 1.5 * rng.uniform();
      break;
    default:
      dist.kind = cost::DistKind::kPareto;
      dist.alpha = 1.1 + 2.0 * rng.uniform();
      dist.lo = 0.1 + rng.uniform();
      dist.hi = dist.lo * (1.0 + 9.0 * rng.uniform());
      break;
  }
  return dist;
}

TEST(InstanceIo, CostModelRoundTripFuzz) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    stats::Rng rng = stats::Rng::stream(0xC057, seed);
    Instance original =
        gen::uniform_unrelated(2 + seed % 4, 3 + seed % 9, 1.0, 50.0, seed);
    std::vector<cost::Dist> dists(original.num_jobs());
    for (auto& dist : dists) dist = random_dist(rng);
    original.set_cost_model(cost::CostModel(std::move(dists)));
    std::stringstream buffer;
    save_instance(original, buffer);
    const Instance loaded = load_instance(buffer);
    expect_instances_equal(original, loaded);
  }
}

TEST(InstanceIo, CostModelRoundTripWithJobTypes) {
  // types and costmodel are both optional sections; when both are present
  // they must coexist (types first, then costmodel, then costs).
  Instance original = gen::typed_uniform(3, 12, 4, 1.0, 9.0, 5);
  original.set_cost_model(cost::CostModel(std::vector<cost::Dist>(
      original.num_jobs(), cost::parse_dist("normal:0.25"))));
  std::stringstream buffer;
  save_instance(original, buffer);
  const Instance loaded = load_instance(buffer);
  expect_instances_equal(original, loaded);
}

TEST(InstanceIo, AbsentCostModelStaysAbsent) {
  const Instance original = gen::uniform_unrelated(3, 7, 1.0, 10.0, 11);
  std::stringstream buffer;
  save_instance(original, buffer);
  EXPECT_EQ(buffer.str().find("costmodel"), std::string::npos);
  EXPECT_FALSE(load_instance(buffer).has_cost_model());
}

/// Replaces the first costmodel spec of a saved instance with `spec`.
std::string with_first_costmodel_spec(const Instance& instance,
                                      const std::string& spec) {
  std::stringstream buffer;
  save_instance(instance, buffer);
  std::string text = buffer.str();
  const std::string tag = "costmodel ";
  const std::size_t at = text.find(tag) + tag.size();
  const std::size_t end = text.find(' ', at);
  return text.substr(0, at) + spec + text.substr(end);
}

TEST(InstanceIo, RejectsCostModelErrorsNamingJobAndField) {
  Instance original = gen::uniform_unrelated(2, 4, 1.0, 10.0, 13);
  original.set_cost_model(cost::CostModel(
      std::vector<cost::Dist>(original.num_jobs(), cost::Dist{})));
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"gamma:2", "unknown distribution 'gamma'"},
      {"pareto:2,1", "pareto expects 3 parameters alpha,lo,hi"},
      {"normal:-0.5", "normal.sigma"},
      {"pareto:2,3,2", "pareto.hi"}};
  for (const auto& [spec, needle] : bad) {
    std::stringstream corrupted(with_first_costmodel_spec(original, spec));
    try {
      static_cast<void>(load_instance(corrupted));
      FAIL() << spec << ": expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("costmodel entry for job 0"), std::string::npos)
          << spec << " -> " << what;
      EXPECT_NE(what.find(needle), std::string::npos) << spec << " -> "
                                                      << what;
    }
  }
}

TEST(InstanceIo, RejectsTruncatedCostModelSection) {
  Instance original = gen::uniform_unrelated(2, 4, 1.0, 10.0, 13);
  original.set_cost_model(cost::CostModel(
      std::vector<cost::Dist>(original.num_jobs(), cost::Dist{})));
  std::stringstream buffer;
  save_instance(original, buffer);
  std::string text = buffer.str();
  text.resize(text.find("costmodel ") + std::string("costmodel det:1").size());
  std::stringstream truncated(text);
  EXPECT_THROW(static_cast<void>(load_instance(truncated)),
               std::runtime_error);
}

TEST(InstanceIo, RejectsCorruptHeader) {
  std::stringstream buffer("not-an-instance v1\n");
  EXPECT_THROW(load_instance(buffer), std::runtime_error);
}

TEST(InstanceIo, RejectsTruncatedFile) {
  const Instance original = gen::uniform_unrelated(2, 3, 1.0, 5.0, 6);
  std::stringstream buffer;
  save_instance(original, buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  std::stringstream half(text);
  EXPECT_THROW(load_instance(half), std::runtime_error);
}

/// Loads `text` and expects `Error` with `needle` in its message.
template <typename Error, typename Load>
void expect_refused(Load load, const std::string& text,
                    const std::string& needle) {
  std::stringstream in(text);
  try {
    static_cast<void>(load(in));
    FAIL() << text << "\nexpected a refusal naming " << needle;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << text << "\n-> " << e.what();
  }
}

/// A two-job instance on one machine with the given types line.
std::string typed_text(const std::string& types) {
  return "dlb-instance v1\nmachines 1 groups 1 jobs 2\ngroup_of 0\n"
         "scales 1\ntypes " +
         types + "\ncosts\n1 1\n";
}

TEST(InstanceIo, RejectsHostileCountsWithoutSizingByThem) {
  // 2^61 jobs or groups over a body of a few bytes: rows grow as they are
  // read, so the load stops at the first missing entry.
  const std::string huge = "2305843009213693952";
  const std::string body = "\ngroup_of 0\nscales 1\ncosts\n1 2\n";
  expect_refused<std::runtime_error>(
      load_instance,
      "dlb-instance v1\nmachines 1 groups 1 jobs " + huge + body,
      "Instance::load: truncated costs");
  expect_refused<std::runtime_error>(
      load_instance,
      "dlb-instance v1\nmachines 1 groups " + huge + " jobs 1" + body,
      "Instance::load: truncated costs");
  // Without jobs no cost entry runs out, so the group count is bounded.
  expect_refused<std::runtime_error>(
      load_instance,
      "dlb-instance v1\nmachines 1 groups " + huge +
          " jobs 0\ngroup_of 0\nscales 1\ncosts\n",
      "groups count " + huge + " exceeds machines 1");
  expect_refused<std::runtime_error>(
      load_assignment, "dlb-assignment v1\njobs " + huge + "\n0 1\n",
      "Assignment::load: truncated assignment");
}

TEST(InstanceIo, RejectsHostileTypeIds) {
  // An id past the job count is the Instance rule's; a sign is the
  // codec's, which never wraps -4294967295 to type 1.
  expect_refused<std::invalid_argument>(load_instance,
                                        typed_text("0 4000000000"),
                                        "job 1 has type 4000000000");
  expect_refused<std::runtime_error>(load_instance,
                                     typed_text("0 -4294967295"),
                                     "bad types entry \"-4294967295\"");
  expect_refused<std::runtime_error>(load_instance,
                                     typed_text("0 4294967296"),
                                     "bad types entry \"4294967296\"");
  std::stringstream good(typed_text("0 0"));
  EXPECT_EQ(load_instance(good).num_job_types(), 1u);
}

TEST(AssignmentIo, RejectsWrappedAndMalformedEntries) {
  // 4294967295 is kUnassigned itself; the two after it used to wrap to
  // machines 0 and 1.
  for (const std::string entry :
       {"4294967295", "4294967296", "-4294967295", "x", "1.5"}) {
    expect_refused<std::runtime_error>(
        load_assignment, "dlb-assignment v1\njobs 2\n0 " + entry + "\n",
        "Assignment::load: bad assignment entry \"" + entry + "\"");
  }
}

TEST(AssignmentIo, RoundTripComplete) {
  const Instance inst = gen::uniform_unrelated(3, 8, 1.0, 5.0, 7);
  const Assignment original = gen::random_assignment(inst, 8);
  std::stringstream buffer;
  save_assignment(original, buffer);
  const Assignment loaded = load_assignment(buffer);
  EXPECT_EQ(original, loaded);
}

TEST(AssignmentIo, RoundTripPartial) {
  Assignment original(4);
  original.assign(1, 2);
  original.assign(3, 0);
  std::stringstream buffer;
  save_assignment(original, buffer);
  const Assignment loaded = load_assignment(buffer);
  EXPECT_EQ(original, loaded);
  EXPECT_FALSE(loaded.is_assigned(0));
  EXPECT_EQ(loaded.machine_of(1), 2u);
}

TEST(InstanceIo, FileRoundTrip) {
  const Instance original = gen::two_cluster_uniform(2, 3, 6, 1.0, 50.0, 9);
  const std::string path = ::testing::TempDir() + "/dlb_io_test.inst";
  save_instance_file(original, path);
  const Instance loaded = load_instance_file(path);
  expect_instances_equal(original, loaded);
}

TEST(InstanceIo, FileOpenFailureThrows) {
  EXPECT_THROW(load_instance_file("/nonexistent/dir/foo.inst"),
               std::runtime_error);
  const Instance inst = Instance::identical(1, {1.0});
  EXPECT_THROW(save_instance_file(inst, "/nonexistent/dir/foo.inst"),
               std::runtime_error);
}

}  // namespace
}  // namespace dlb::io
