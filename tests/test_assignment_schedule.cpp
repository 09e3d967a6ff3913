#include "core/assignment.hpp"
#include "core/schedule.hpp"
#include "core/validation.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/generators.hpp"
#include "core/numa.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace dlb {
namespace {

TEST(Assignment, StartsUnassigned) {
  Assignment a(3);
  EXPECT_EQ(a.num_jobs(), 3u);
  EXPECT_FALSE(a.is_complete());
  for (JobId j = 0; j < 3; ++j) {
    EXPECT_EQ(a.machine_of(j), kUnassigned);
    EXPECT_FALSE(a.is_assigned(j));
  }
}

TEST(Assignment, AssignUnassignRoundTrip) {
  Assignment a(2);
  a.assign(0, 1);
  EXPECT_TRUE(a.is_assigned(0));
  EXPECT_EQ(a.machine_of(0), 1u);
  a.unassign(0);
  EXPECT_FALSE(a.is_assigned(0));
}

TEST(Assignment, RoundRobinCoversAllMachines) {
  const Assignment a = Assignment::round_robin(7, 3);
  EXPECT_TRUE(a.is_complete());
  EXPECT_EQ(a.machine_of(0), 0u);
  EXPECT_EQ(a.machine_of(3), 0u);
  EXPECT_EQ(a.machine_of(5), 2u);
  EXPECT_EQ(a.jobs_of(0).size(), 3u);
  EXPECT_EQ(a.jobs_of(1).size(), 2u);
}

TEST(Assignment, AllOnPilesEverything) {
  const Assignment a = Assignment::all_on(4, 2);
  EXPECT_EQ(a.jobs_of(2).size(), 4u);
  EXPECT_TRUE(a.jobs_of(0).empty());
}

TEST(Assignment, EqualityIsStructural) {
  Assignment a = Assignment::round_robin(4, 2);
  Assignment b = Assignment::round_robin(4, 2);
  EXPECT_EQ(a, b);
  b.assign(0, 1);
  EXPECT_NE(a, b);
}

class ScheduleTest : public ::testing::Test {
 protected:
  // 2 machines, 3 jobs, unrelated.
  Instance inst_ = Instance::unrelated({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
};

TEST_F(ScheduleTest, EmptyScheduleHasZeroLoads) {
  Schedule s(inst_);
  EXPECT_DOUBLE_EQ(s.load(0), 0.0);
  EXPECT_DOUBLE_EQ(s.load(1), 0.0);
  EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
}

TEST_F(ScheduleTest, AssignUpdatesLoadAndMakespan) {
  Schedule s(inst_);
  s.assign(0, 0);
  s.assign(1, 1);
  EXPECT_DOUBLE_EQ(s.load(0), 1.0);
  EXPECT_DOUBLE_EQ(s.load(1), 5.0);
  EXPECT_DOUBLE_EQ(s.makespan(), 5.0);
  EXPECT_EQ(s.argmax_load(), 1u);
}

TEST_F(ScheduleTest, MoveTransfersLoad) {
  Schedule s(inst_, Assignment::all_on(3, 0));
  EXPECT_DOUBLE_EQ(s.load(0), 6.0);
  s.move(2, 1);
  EXPECT_DOUBLE_EQ(s.load(0), 3.0);
  EXPECT_DOUBLE_EQ(s.load(1), 6.0);
  EXPECT_EQ(s.machine_of(2), 1u);
  EXPECT_TRUE(s.check_consistency());
}

TEST_F(ScheduleTest, MoveToSameMachineIsNoop) {
  Schedule s(inst_, Assignment::all_on(3, 0));
  const Cost before = s.load(0);
  s.move(1, 0);
  EXPECT_DOUBLE_EQ(s.load(0), before);
  EXPECT_TRUE(s.check_consistency());
}

TEST_F(ScheduleTest, UnassignRemovesLoad) {
  Schedule s(inst_, Assignment::all_on(3, 1));
  s.unassign(0);
  EXPECT_DOUBLE_EQ(s.load(1), 11.0);
  EXPECT_EQ(s.machine_of(0), kUnassigned);
  EXPECT_TRUE(s.check_consistency());
}

TEST_F(ScheduleTest, DoubleAssignThrows) {
  Schedule s(inst_);
  s.assign(0, 0);
  EXPECT_THROW(s.assign(0, 1), std::logic_error);
}

TEST_F(ScheduleTest, JobsOnTracksMembership) {
  Schedule s(inst_, Assignment::round_robin(3, 2));
  EXPECT_EQ(s.jobs_on(0).size(), 2u);
  EXPECT_EQ(s.jobs_on(1).size(), 1u);
  s.move(0, 1);
  EXPECT_EQ(s.jobs_on(0).size(), 1u);
  EXPECT_EQ(s.jobs_on(1).size(), 2u);
}

TEST_F(ScheduleTest, FingerprintDetectsChanges) {
  Schedule s1(inst_, Assignment::round_robin(3, 2));
  Schedule s2(inst_, Assignment::round_robin(3, 2));
  EXPECT_EQ(s1.fingerprint(), s2.fingerprint());
  s2.move(0, 1);
  EXPECT_NE(s1.fingerprint(), s2.fingerprint());
  s2.move(0, 0);  // back to the original assignment
  EXPECT_EQ(s1.fingerprint(), s2.fingerprint());
}

TEST_F(ScheduleTest, MigrationsCountOnlyEffectiveMoves) {
  Schedule s(inst_, Assignment::all_on(3, 0));
  EXPECT_EQ(s.migrations(), 0u);
  s.move(0, 0);  // no-op
  EXPECT_EQ(s.migrations(), 0u);
  s.move(0, 1);
  EXPECT_EQ(s.migrations(), 1u);
  s.move(0, 0);
  EXPECT_EQ(s.migrations(), 2u);
  s.unassign(1);           // not a migration
  s.move(1, 1);            // assignment of an unassigned job: not a migration
  EXPECT_EQ(s.migrations(), 2u);
}

TEST_F(ScheduleTest, TotalLoadSumsMachines) {
  Schedule s(inst_, Assignment::round_robin(3, 2));
  EXPECT_DOUBLE_EQ(s.total_load(), s.load(0) + s.load(1));
}

TEST_F(ScheduleTest, RejectsMismatchedAssignment) {
  EXPECT_THROW(Schedule(inst_, Assignment(5)), std::invalid_argument);
  Assignment bad(3);
  bad.assign(0, 9);  // machine out of range
  EXPECT_THROW(Schedule(inst_, bad), std::invalid_argument);
}

TEST_F(ScheduleTest, ValidationHelpers) {
  Schedule complete(inst_, Assignment::all_on(3, 0));
  EXPECT_NO_THROW(validate_complete(complete));
  EXPECT_TRUE(is_complete_partition(complete));

  Schedule partial(inst_);
  std::string why;
  EXPECT_FALSE(is_complete_partition(partial, &why));
  EXPECT_FALSE(why.empty());
  EXPECT_THROW(validate_complete(partial), std::runtime_error);
}

TEST_F(ScheduleTest, ApproximationFactor) {
  Schedule s(inst_, Assignment::all_on(3, 0));
  EXPECT_DOUBLE_EQ(approximation_factor(s, 3.0), 2.0);
  EXPECT_THROW((void)approximation_factor(s, 0.0), std::invalid_argument);
}

TEST(ScheduleProperty, RandomMoveSequencePreservesConsistency) {
  const Instance inst =
      gen::uniform_unrelated(5, 20, 1.0, 100.0, /*seed=*/77);
  Schedule s(inst, gen::random_assignment(inst, 78));
  stats::Rng rng(79);
  for (int step = 0; step < 500; ++step) {
    const auto j = static_cast<JobId>(rng.below(inst.num_jobs()));
    const auto to = static_cast<MachineId>(rng.below(inst.num_machines()));
    s.move(j, to);
  }
  EXPECT_TRUE(s.check_consistency());
  // Makespan equals the max recomputed load.
  Cost max_load = 0.0;
  for (MachineId i = 0; i < inst.num_machines(); ++i) {
    max_load = std::max(max_load, s.load(i));
  }
  EXPECT_DOUBLE_EQ(s.makespan(), max_load);
}

// ----- Cmax cache differential -----
//
// makespan() folds only the machines touched since its last call into a
// cached max. The reference scans every load. Values are compared as
// IEEE-754 bit patterns after random mutation sequences.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

Cost reference_makespan(const Schedule& s) {
  Cost best = s.load(0);
  for (MachineId i = 1; i < s.num_machines(); ++i) {
    best = std::max(best, s.load(i));
  }
  return best;
}

/// One random mutation. Cases 3-5 take a job off the machine holding the
/// max, so the holder loses load; case 6 overwrites every accumulator
/// through restore_loads() with the holder's load halved; cases 7 and 8
/// overwrite one accumulator through restore_load(): the holder's, halved
/// (the cached Cmax holder drops), or a random machine's, scaled by a
/// factor in [0.5, 2) (it may take over the max or lose it).
void random_mutation(Schedule& s, stats::Rng& rng) {
  const Instance& inst = s.instance();
  const auto j = static_cast<JobId>(rng.below(inst.num_jobs()));
  const auto to = static_cast<MachineId>(rng.below(inst.num_machines()));
  switch (rng.below(20)) {
    case 0:
    case 1:
    case 2:
      s.unassign(j);
      break;
    case 3:
    case 4:
    case 5: {
      const MachineId holder = s.argmax_load();
      const auto jobs = s.jobs_on(holder);
      if (!jobs.empty()) s.move(*jobs.begin(), to);
      break;
    }
    case 6: {
      std::vector<Cost> loads(s.num_machines());
      for (MachineId i = 0; i < loads.size(); ++i) loads[i] = s.load(i);
      loads[s.argmax_load()] *= 0.5;
      s.restore_loads(loads);
      break;
    }
    case 7: {
      const MachineId holder = s.argmax_load();
      s.restore_load(holder, s.load(holder) * 0.5);
      break;
    }
    case 8:
      s.restore_load(to, s.load(to) * rng.uniform(0.5, 2.0));
      break;
    default:
      s.move(j, to);  // assigns when j is unassigned
      break;
  }
}

void expect_cache_matches(const Schedule& s, const char* what, int step) {
  ASSERT_EQ(bits(s.makespan()), bits(reference_makespan(s)))
      << what << " step " << step;
}

/// Random mutations with makespan() queried at random points, so several
/// mutations accumulate between queries.
void run_sequence(Schedule& s, stats::Rng& rng, int steps, const char* what) {
  for (int step = 0; step < steps; ++step) {
    random_mutation(s, rng);
    if (rng.below(3) == 0) expect_cache_matches(s, what, step);
  }
  expect_cache_matches(s, what, steps);
}

TEST(MakespanCache, RandomSequencesMatchFullScanBitwise) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance inst =
        gen::uniform_unrelated(7, 60, 1.0, 100.0, /*seed=*/seed);
    Schedule s(inst, gen::random_assignment(inst, seed + 100));
    stats::Rng rng(seed + 200);
    run_sequence(s, rng, 2000, "unrelated");
  }
}

TEST(MakespanCache, TiesMatchFullScanBitwise) {
  // Integer costs on identical machines: loads tie all the time, and the
  // holder often shares the max with other machines.
  std::vector<Cost> costs(48);
  stats::Rng cost_rng(5);
  for (Cost& c : costs) c = static_cast<Cost>(1 + cost_rng.below(3));
  const Instance inst = Instance::identical(6, costs);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Schedule s(inst, Assignment::round_robin(inst.num_jobs(), 6));
    stats::Rng rng(seed);
    run_sequence(s, rng, 2000, "ties");
  }
}

/// A warm schedule of `inst` whose max sits on a machine other than the
/// one holding the max of `source`.
Schedule warm_elsewhere(const Instance& inst, const Schedule& source) {
  const auto elsewhere = static_cast<MachineId>(
      (source.argmax_load() + 1) % inst.num_machines());
  Schedule s(inst, Assignment::all_on(inst.num_jobs(), elsewhere));
  (void)s.makespan();
  return s;
}

/// Takes a job off the machine holding the max; nothing else changes.
void drop_from_holder(Schedule& s) {
  const auto jobs = s.jobs_on(s.argmax_load());
  if (!jobs.empty()) s.unassign(*jobs.begin());
}

TEST(MakespanCache, CopiesMidSequenceKeepExactCaches) {
  const Instance inst = gen::related_uniform(8, 80, 1.0, 50.0, 0.5, 2.0, 3);
  Schedule s(inst, gen::random_assignment(inst, 4));
  stats::Rng rng(5);
  run_sequence(s, rng, 300, "original");

  // Copies taken while the source has mutations pending.
  random_mutation(s, rng);
  random_mutation(s, rng);
  Schedule copied(s);
  expect_cache_matches(copied, "copy-constructed", 0);
  Schedule assigned = warm_elsewhere(inst, s);
  random_mutation(s, rng);
  assigned = s;
  expect_cache_matches(assigned, "copy-assigned", 0);

  // Copies of a drained source whose max holder then loses load: only an
  // inherited holder notices. Machine 0 is emptied so that the holder
  // differs from the one a fresh cache starts with.
  while (!s.jobs_on(0).empty()) s.unassign(*s.jobs_on(0).begin());
  (void)s.makespan();
  Schedule copied_drained(s);
  drop_from_holder(copied_drained);
  expect_cache_matches(copied_drained, "copy-constructed, drained", 0);
  Schedule assigned_drained = warm_elsewhere(inst, s);
  assigned_drained = s;
  drop_from_holder(assigned_drained);
  expect_cache_matches(assigned_drained, "copy-assigned, drained", 0);

  stats::Rng copied_rng(7);
  stats::Rng assigned_rng(8);
  run_sequence(s, rng, 500, "original");
  run_sequence(copied, copied_rng, 500, "copy-constructed");
  run_sequence(assigned, assigned_rng, 500, "copy-assigned");
}

TEST(MakespanCache, ConcurrentDisjointPairMovesThenMakespan) {
  // Each round pairs every machine with one other; the pool runs the
  // pairs concurrently, each moving jobs from the heavier machine of its
  // pair to the lighter, so the holder of the max usually loses load.
  constexpr std::size_t kMachines = 64;
  const Instance inst =
      gen::uniform_unrelated(kMachines, 2000, 1.0, 100.0, /*seed=*/9);
  Schedule s(inst, gen::random_assignment(inst, 10));
  parallel::ThreadPool pool(4);
  std::vector<MachineId> order(kMachines);
  for (MachineId i = 0; i < kMachines; ++i) order[i] = i;
  stats::Rng plan_rng(11);
  for (int round = 0; round < 40; ++round) {
    stats::shuffle(order.begin(), order.end(), plan_rng);
    parallel::parallel_for(pool, kMachines / 2, [&](std::size_t p) {
      MachineId from = order[2 * p];
      MachineId to = order[2 * p + 1];
      if (s.load(from) < s.load(to)) std::swap(from, to);
      std::vector<JobId> jobs;
      for (const JobId j : s.jobs_on(from)) jobs.push_back(j);
      for (std::size_t k = 0; k < jobs.size(); k += 3) {
        s.move(jobs[k], to);
      }
    });
    expect_cache_matches(s, "concurrent", round);
  }
  EXPECT_TRUE(s.check_consistency());
}


TEST(ScheduleSlab, SlabsArePageAlignedOnBothSidesOfTheMapThreshold) {
  for (const std::size_t bytes :
       {std::size_t{64}, core::numa::kMapThreshold - 1,
        core::numa::kMapThreshold, 3 * core::numa::kMapThreshold + 5}) {
    core::numa::Slab slab = core::numa::alloc_slab(bytes);
    ASSERT_NE(slab, nullptr) << bytes;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(slab.get()) %
                  core::numa::kPageSize,
              0u)
        << bytes;
    std::memset(slab.get(), 0, bytes);
    slab[bytes - 1] = std::byte{7};
    core::numa::Slab moved = std::move(slab);
    EXPECT_EQ(moved[bytes - 1], std::byte{7}) << bytes;
  }
  EXPECT_EQ(core::numa::alloc_slab(0), nullptr);
}

TEST(ScheduleSlab, MappedAndHeapSlabsCopyAndSwap) {
  // 40000 jobs put the slab well past the map threshold; 40 jobs keep it
  // on the heap. Copies and swaps hand a slab of one kind to a table that
  // held the other.
  const Instance big = gen::uniform_unrelated(50, 40000, 1.0, 100.0, 12);
  const Instance small = gen::uniform_unrelated(4, 40, 1.0, 100.0, 13);
  Schedule large(big, gen::random_assignment(big, 14));
  const std::uint64_t fingerprint = large.fingerprint();
  const Cost makespan = large.makespan();

  Schedule copied(large);
  EXPECT_EQ(copied.fingerprint(), fingerprint);
  EXPECT_TRUE(copied.check_consistency());

  Schedule target(small, gen::random_assignment(small, 15));
  target = large;
  EXPECT_EQ(target.fingerprint(), fingerprint);
  EXPECT_EQ(target.makespan(), makespan);

  Schedule little(small, gen::random_assignment(small, 16));
  const std::uint64_t little_fingerprint = little.fingerprint();
  std::swap(target, little);
  EXPECT_EQ(target.fingerprint(), little_fingerprint);
  EXPECT_EQ(little.fingerprint(), fingerprint);
  EXPECT_TRUE(little.check_consistency());
}

}  // namespace
}  // namespace dlb
