// Differential tests of LoadTable's contiguous rows: seeded random
// sequences of table and schedule operations, checked after every step
// against a plain reference (a std::set of jobs per machine, accumulators
// replayed with the same += / -= sequence, and each row's in-order flag),
// with copies, moves and swaps in the middle of each sequence. Rows
// written whole leave their positions stale, so the attaches, takes and
// moves that follow one exercise the lazy re-index.

#include "core/load_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/generators.hpp"
#include "core/schedule.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace dlb {
namespace {

std::uint64_t bits(Cost x) { return std::bit_cast<std::uint64_t>(x); }

/// What a table must hold, kept the plain way.
struct Reference {
  explicit Reference(std::size_t m, std::size_t n)
      : rows(m),
        loads(m, 0.0),
        arrivals(m, 0),
        in_order(m, 0),
        machine_of(n, kUnassigned) {}

  std::vector<std::set<JobId>> rows;
  std::vector<Cost> loads;
  std::vector<std::uint64_t> arrivals;
  std::vector<char> in_order;
  std::set<MachineId> touched;
  std::vector<MachineId> machine_of;

  void attach(JobId j, MachineId i, Cost cost, bool migrated) {
    rows[i].insert(j);
    machine_of[j] = i;
    loads[i] += cost;
    if (migrated) ++arrivals[i];
    in_order[i] = 0;
    touched.insert(i);
  }
  void detach(JobId j, MachineId i, Cost cost) {
    rows[i].erase(j);
    machine_of[j] = kUnassigned;
    loads[i] -= cost;
    in_order[i] = 0;
    touched.insert(i);
  }
};

void expect_rows_match(const LoadTable& table, const Reference& ref,
                       const std::string& where) {
  ASSERT_EQ(table.num_machines(), ref.rows.size()) << where;
  for (MachineId i = 0; i < ref.rows.size(); ++i) {
    const LoadTable::JobList row = table.jobs(i);
    ASSERT_EQ(row.size(), ref.rows[i].size()) << where << ", machine " << i;
    EXPECT_EQ(table.count(i), ref.rows[i].size()) << where;
    EXPECT_EQ(std::set<JobId>(row.begin(), row.end()), ref.rows[i])
        << where << ", machine " << i;
    EXPECT_EQ(bits(table.load(i)), bits(ref.loads[i]))
        << where << ", machine " << i;
    EXPECT_EQ(table.arrivals(i), ref.arrivals[i]) << where;
    EXPECT_EQ(table.in_order(i), ref.in_order[i] != 0)
        << where << ", machine " << i;
  }
  EXPECT_TRUE(table.rows_consistent()) << where;
}

void expect_table_matches(const LoadTable& table, const Reference& ref,
                          const std::string& where) {
  expect_rows_match(table, ref, where);
  const std::span<const MachineId> touched = table.touched();
  EXPECT_EQ(touched.size(), ref.touched.size()) << where;
  EXPECT_EQ(std::set<MachineId>(touched.begin(), touched.end()), ref.touched)
      << where;
}

/// A whole-row rewrite of machines a and b on both sides, as
/// Schedule::write_split does it: their pooled jobs are shuffled and cut,
/// every job that changes machine is debited and credited, then both rows
/// are written whole (a == b rewrites one row in a new order).
void rewrite_rows(LoadTable& table, Reference& ref, MachineId a, MachineId b,
                  stats::Rng& rng) {
  std::vector<JobId> pool(ref.rows[a].begin(), ref.rows[a].end());
  if (b != a) pool.insert(pool.end(), ref.rows[b].begin(), ref.rows[b].end());
  stats::shuffle(pool.begin(), pool.end(), rng);
  const std::size_t cut = b == a ? pool.size() : rng.below(pool.size() + 1);
  const std::span<const JobId> to_a(pool.data(), cut);
  const std::span<const JobId> to_b(pool.data() + cut, pool.size() - cut);
  table.reserve_row(a, to_a.size());
  table.reserve_row(b, to_b.size());
  const auto deliver = [&](std::span<const JobId> jobs, MachineId to) {
    for (const JobId j : jobs) {
      const MachineId from = ref.machine_of[j];
      if (from == to) continue;
      const Cost out = 0.5 + j;
      const Cost in = 0.25 * j;
      table.debit(from, out);
      table.credit(to, in, /*migrated=*/true);
      ref.rows[from].erase(j);
      ref.rows[to].insert(j);
      ref.machine_of[j] = to;
      ref.loads[from] -= out;
      ref.loads[to] += in;
      ++ref.arrivals[to];
      ref.touched.insert(from);
      ref.touched.insert(to);
    }
  };
  deliver(to_a, a);
  deliver(to_b, b);
  const bool in_order = rng.below(2) == 0;
  if (b != a) table.write_row(b, to_b, in_order);
  table.write_row(a, to_a, in_order);
  ref.in_order[a] = ref.in_order[b] = in_order ? 1 : 0;
  const LoadTable::JobList row = table.jobs(a);
  EXPECT_TRUE(std::equal(row.begin(), row.end(), to_a.begin(), to_a.end()));
}

/// One random table operation on both sides. Machine 0 draws a quarter of
/// the attaches, so its row keeps outgrowing its capacity.
void random_table_op(LoadTable& table, Reference& ref, stats::Rng& rng) {
  const std::size_t m = ref.rows.size();
  const auto j = static_cast<JobId>(rng.below(ref.machine_of.size()));
  const Cost cost = rng.uniform(1.0, 100.0);
  const MachineId from = ref.machine_of[j];
  switch (rng.below(10)) {
    case 0:
    case 1:
    case 2:
      if (from == kUnassigned) {
        const auto to = rng.below(4) == 0
                            ? MachineId{0}
                            : static_cast<MachineId>(rng.below(m));
        const bool migrated = rng.below(2) == 0;
        table.attach(j, to, cost, migrated);
        ref.attach(j, to, cost, migrated);
      }
      break;
    case 3:
    case 4:
      if (from != kUnassigned) {
        table.detach(j, from, cost);
        ref.detach(j, from, cost);
      }
      break;
    case 5:
      if (from != kUnassigned) {
        table.take(j, from);
        table.debit(from, cost);
        ref.detach(j, from, cost);
      }
      break;
    case 6: {
      const auto i = static_cast<MachineId>(rng.below(m));
      table.set_load(i, cost);
      ref.loads[i] = cost;
      ref.touched.insert(i);
      break;
    }
    case 8:
    case 9: {
      const auto a = static_cast<MachineId>(rng.below(m));
      rewrite_rows(table, ref, a, static_cast<MachineId>(rng.below(m)), rng);
      break;
    }
    default:
      table.clear_touched();
      ref.touched.clear();
      break;
  }
}

TEST(LoadTableRows, RandomTableOpsMatchTheReferenceThroughCopiesAndMoves) {
  constexpr std::size_t kMachines = 7;
  constexpr std::size_t kJobs = 300;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    stats::Rng rng(seed);
    // Odd seeds start from a carved placement (machine 6 stays empty, so
    // its row has no storage), even ones from an empty table.
    std::vector<MachineId> placement(kJobs, kUnassigned);
    if (seed % 2 == 1) {
      for (JobId j = 0; j < kJobs; j += 2) {
        placement[j] = static_cast<MachineId>(rng.below(kMachines - 1));
      }
    }
    LoadTable table(kMachines, kJobs, placement);
    Reference ref(kMachines, kJobs);
    for (JobId j = 0; j < kJobs; ++j) {
      if (placement[j] == kUnassigned) continue;
      table.attach(j, placement[j], 1.0 + j, false);
      ref.attach(j, placement[j], 1.0 + j, false);
    }
    const std::string where = "seed " + std::to_string(seed);
    expect_table_matches(table, ref, where + ", placed");
    for (int step = 1; step <= 3000; ++step) {
      random_table_op(table, ref, rng);
      if (step % 100 == 0) {
        expect_table_matches(table, ref,
                             where + ", step " + std::to_string(step));
      }
      if (step == 600) {
        // A copy carves its own rows; the source must stay intact.
        LoadTable copy(table);
        expect_table_matches(copy, ref, where + ", copy-constructed");
        table = std::move(copy);
        expect_table_matches(table, ref, where + ", move-assigned");
      } else if (step == 1200) {
        LoadTable other(2, 5);
        other.attach(3, 1, 2.0, true);
        other = table;
        expect_table_matches(other, ref, where + ", copy-assigned");
        std::swap(table, other);
        expect_table_matches(table, ref, where + ", swapped");
        expect_table_matches(other, ref, where + ", swapped source");
      } else if (step == 1800) {
        LoadTable moved(std::move(table));
        expect_table_matches(moved, ref, where + ", move-constructed");
        table = moved;
      }
    }
    expect_table_matches(table, ref, where + ", end");
  }
}

TEST(LoadTableRows, RowsGrowThroughEveryCapacityEdge) {
  // A machine whose carved row holds k jobs receives every other job one
  // at a time, as a churn drain sends all n jobs to one machine: its row
  // passes exactly-full and moves at each capacity it outgrows. k = 0 is
  // a row with no storage at all.
  constexpr std::size_t kJobs = 200;
  for (const std::size_t carved : {0u, 1u, 7u, 8u, 9u, 31u, 32u, 33u, 64u}) {
    std::vector<MachineId> placement(kJobs, kUnassigned);
    for (JobId j = 0; j < carved; ++j) placement[j] = 1;
    LoadTable table(3, kJobs, placement);
    Reference ref(3, kJobs);
    for (JobId j = 0; j < carved; ++j) {
      table.attach(j, 1, 0.5, false);
      ref.attach(j, 1, 0.5, false);
    }
    for (JobId j = static_cast<JobId>(carved); j < kJobs; ++j) {
      table.attach(j, 1, 0.25 * j, true);
      ref.attach(j, 1, 0.25 * j, true);
      expect_rows_match(table, ref,
                        "carved " + std::to_string(carved) + ", job " +
                            std::to_string(j));
    }
    // Drain the full row from its middle, then refill another machine.
    for (JobId j = kJobs / 2; j < kJobs; ++j) {
      table.detach(j, 1, 0.25 * j);
      ref.detach(j, 1, 0.25 * j);
      table.attach(j, 2, 1.0, true);
      ref.attach(j, 2, 1.0, true);
    }
    expect_table_matches(table, ref, "carved " + std::to_string(carved));
  }
}

// ----- Schedule level: the operations the engines call -----

struct ScheduleReference {
  /// With `surrogate`, decision loads replay its costs, rebuilt in
  /// ascending job id as Schedule::set_decision_instance does.
  ScheduleReference(const Instance& inst, const Assignment& initial,
                    const Instance* surrogate = nullptr)
      : instance(&inst),
        decision(surrogate),
        rows(inst.num_machines()),
        loads(inst.num_machines(), 0.0),
        decision_loads(surrogate ? inst.num_machines() : 0, 0.0),
        arrivals(inst.num_machines(), 0),
        in_order(inst.num_machines(), 0),
        machine_of(initial.raw()) {
    for (JobId j = 0; j < machine_of.size(); ++j) {
      const MachineId i = machine_of[j];
      if (i == kUnassigned) continue;
      rows[i].insert(j);
      loads[i] += inst.cost(i, j);
      if (decision) decision_loads[i] += decision->cost(i, j);
    }
  }

  /// Schedule::move's sequence: debit the old machine, credit the new, in
  /// real and decision loads.
  bool move(JobId j, MachineId to) {
    const MachineId from = machine_of[j];
    if (from == to) return false;
    if (from != kUnassigned) {
      rows[from].erase(j);
      loads[from] -= instance->cost(from, j);
      ++arrivals[to];
      in_order[from] = 0;
    }
    rows[to].insert(j);
    loads[to] += instance->cost(to, j);
    if (decision) {
      if (from != kUnassigned) decision_loads[from] -= decision->cost(from, j);
      decision_loads[to] += decision->cost(to, j);
    }
    machine_of[j] = to;
    in_order[to] = 0;
    return true;
  }
  void unassign(JobId j) {
    const MachineId from = machine_of[j];
    if (from == kUnassigned) return;
    rows[from].erase(j);
    loads[from] -= instance->cost(from, j);
    if (decision) decision_loads[from] -= decision->cost(from, j);
    machine_of[j] = kUnassigned;
    in_order[from] = 0;
  }
  /// What Schedule::decision_load(i) must read.
  [[nodiscard]] Cost decision_load(MachineId i) const {
    return decision ? decision_loads[i] : loads[i];
  }
  /// Schedule::write_split: move_split's sequence, then both flags.
  bool write_split(MachineId a, std::span<const JobId> to_a, MachineId b,
                   std::span<const JobId> to_b, bool ordered) {
    bool changed = false;
    for (const JobId k : to_a) changed |= move(k, a);
    for (const JobId k : to_b) changed |= move(k, b);
    in_order[a] = in_order[b] = ordered ? 1 : 0;
    return changed;
  }

  const Instance* instance;
  const Instance* decision;
  std::vector<std::set<JobId>> rows;
  std::vector<Cost> loads;
  std::vector<Cost> decision_loads;
  std::vector<std::uint64_t> arrivals;
  std::vector<char> in_order;
  std::vector<MachineId> machine_of;
};

void expect_schedule_matches(const Schedule& s, const ScheduleReference& ref,
                             const std::string& where) {
  Cost max_load = -std::numeric_limits<Cost>::infinity();
  for (MachineId i = 0; i < s.num_machines(); ++i) {
    const LoadTable::JobList row = s.jobs_on(i);
    ASSERT_EQ(std::set<JobId>(row.begin(), row.end()), ref.rows[i])
        << where << ", machine " << i;
    EXPECT_EQ(bits(s.load(i)), bits(ref.loads[i]))
        << where << ", machine " << i;
    EXPECT_EQ(bits(s.decision_load(i)), bits(ref.decision_load(i)))
        << where << ", machine " << i;
    EXPECT_EQ(s.arrivals(i), ref.arrivals[i]) << where;
    EXPECT_EQ(s.row_in_order(i), ref.in_order[i] != 0)
        << where << ", machine " << i;
    max_load = std::max(max_load, ref.loads[i]);
  }
  for (JobId j = 0; j < s.num_jobs(); ++j) {
    ASSERT_EQ(s.machine_of(j), ref.machine_of[j]) << where << ", job " << j;
  }
  EXPECT_EQ(bits(s.makespan()), bits(max_load)) << where;
  EXPECT_TRUE(s.check_consistency()) << where;
}

/// A split of a and b's pooled jobs, shuffled and cut at a random point;
/// unless `exact` (write_split's contract), now and then it also places an
/// unassigned job or pulls one from a third machine, which move_split's
/// contract allows.
void random_split(const ScheduleReference& ref, MachineId a, MachineId b,
                  stats::Rng& rng, std::vector<JobId>& to_a,
                  std::vector<JobId>& to_b, bool exact = false) {
  std::vector<JobId> pool(ref.rows[a].begin(), ref.rows[a].end());
  pool.insert(pool.end(), ref.rows[b].begin(), ref.rows[b].end());
  const auto extra = static_cast<JobId>(rng.below(ref.machine_of.size()));
  if (!exact && ref.machine_of[extra] != a && ref.machine_of[extra] != b &&
      rng.below(3) == 0) {
    pool.push_back(extra);
  }
  stats::shuffle(pool.begin(), pool.end(), rng);
  const std::size_t cut = rng.below(pool.size() + 1);
  to_a.assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(cut));
  to_b.assign(pool.begin() + static_cast<std::ptrdiff_t>(cut), pool.end());
}

void random_schedule_op(Schedule& s, ScheduleReference& ref,
                        stats::Rng& rng) {
  const std::size_t m = s.num_machines();
  const auto j = static_cast<JobId>(rng.below(s.num_jobs()));
  const auto to = static_cast<MachineId>(rng.below(m));
  switch (rng.below(13)) {
    case 0:
      s.unassign(j);
      ref.unassign(j);
      break;
    case 1:
      if (ref.machine_of[j] == kUnassigned) {
        s.assign(j, to);
        ref.move(j, to);
      }
      break;
    case 2:
    case 3:
      s.move(j, to);
      ref.move(j, to);
      break;
    case 4: {
      // A checkpoint restore: fresh sums in ascending job id, whose bits
      // may differ from the running accumulators in the last ulps.
      std::vector<Cost> loads(m, 0.0);
      for (JobId k = 0; k < s.num_jobs(); ++k) {
        const MachineId i = ref.machine_of[k];
        if (i != kUnassigned) loads[i] += s.instance().cost(i, k);
      }
      s.restore_loads(loads);
      ref.loads = loads;
      break;
    }
    case 5:
    case 6:
    case 7: {
      // A whole-pool kernel's apply; the rows it writes take the moves,
      // assigns and unassigns of later steps with stale positions.
      const auto b = static_cast<MachineId>((to + 1 + rng.below(m - 1)) % m);
      std::vector<JobId> to_a;
      std::vector<JobId> to_b;
      random_split(ref, to, b, rng, to_a, to_b, /*exact=*/true);
      const bool ordered = rng.below(2) == 0;
      const bool changed = ref.write_split(to, to_a, b, to_b, ordered);
      EXPECT_EQ(s.write_split(to, to_a, b, to_b, ordered), changed);
      const LoadTable::JobList row_a = s.jobs_on(to);
      const LoadTable::JobList row_b = s.jobs_on(b);
      EXPECT_TRUE(std::equal(row_a.begin(), row_a.end(), to_a.begin(),
                             to_a.end()));
      EXPECT_TRUE(std::equal(row_b.begin(), row_b.end(), to_b.begin(),
                             to_b.end()));
      break;
    }
    default: {
      const auto b = static_cast<MachineId>((to + 1 + rng.below(m - 1)) % m);
      std::vector<JobId> to_a;
      std::vector<JobId> to_b;
      random_split(ref, to, b, rng, to_a, to_b);
      bool changed = false;
      for (const JobId k : to_a) changed |= ref.move(k, to);
      for (const JobId k : to_b) changed |= ref.move(k, b);
      EXPECT_EQ(s.move_split(to, to_a, b, to_b), changed);
      break;
    }
  }
}

/// Random schedule operations, whole-row writes among them, against the
/// per-job replay; with a surrogate attached, its decision loads too.
void expect_random_schedule_ops_match(
    const Instance& inst, const std::shared_ptr<const Instance>& surrogate) {
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    stats::Rng rng(seed);
    const Assignment initial = gen::random_assignment(inst, seed);
    Schedule s(inst, initial);
    s.set_decision_instance(surrogate);
    ScheduleReference ref(inst, initial, surrogate.get());
    const std::string where = "seed " + std::to_string(seed);
    for (int step = 1; step <= 1500; ++step) {
      random_schedule_op(s, ref, rng);
      if (step % 50 == 0) {
        expect_schedule_matches(s, ref,
                                where + ", step " + std::to_string(step));
      }
      if (step == 500) {
        Schedule copied(s);
        expect_schedule_matches(copied, ref, where + ", copy-constructed");
        s = copied;
        expect_schedule_matches(s, ref, where + ", copy-assigned");
      } else if (step == 1000) {
        // A churn drain: every job onto machine 0, then split back out.
        for (JobId j = 0; j < inst.num_jobs(); ++j) {
          if (ref.machine_of[j] != kUnassigned) {
            s.move(j, 0);
            ref.move(j, 0);
          }
        }
        expect_schedule_matches(s, ref, where + ", drained onto machine 0");
        Schedule other(inst);
        std::swap(s, other);
        std::swap(s, other);
        expect_schedule_matches(s, ref, where + ", swapped twice");
      }
    }
  }
}

TEST(LoadTableRows, RandomScheduleOpsMatchTheReferenceThroughCopies) {
  const Instance inst = gen::uniform_unrelated(6, 240, 1.0, 50.0, 17);
  expect_random_schedule_ops_match(inst, nullptr);
}

TEST(LoadTableRows, WholeRowWritesKeepDecisionLoadBits) {
  // The surrogate prices every job differently from the real instance, so
  // a split billed with the wrong costs, or in another order, shows in the
  // decision loads' bits.
  const Instance inst = gen::uniform_unrelated(6, 240, 1.0, 50.0, 17);
  const auto surrogate = std::make_shared<const Instance>(
      gen::uniform_unrelated(6, 240, 0.5, 80.0, 18));
  expect_random_schedule_ops_match(inst, surrogate);
}

/// Every job starts on one of the first 4 of 64 machines, so 60 rows have
/// no storage and grow while other sessions grow theirs. Each round pairs
/// every machine with one other and splits each pair's pool on a 4-thread
/// pool; a copy replays the same splits in order on one thread. With
/// `whole`, each split is written whole and then its first job for a
/// moves on to b, so every session also re-indexes a stale row.
void expect_concurrent_splits_match_a_replay(bool whole) {
  constexpr std::size_t kMachines = 64;
  const Instance inst =
      gen::uniform_unrelated(kMachines, 4000, 1.0, 100.0, /*seed=*/21);
  Assignment initial(inst.num_jobs());
  for (JobId j = 0; j < inst.num_jobs(); ++j) initial.assign(j, j % 4);
  Schedule concurrent(inst, initial);
  Schedule sequential(inst, initial);
  parallel::ThreadPool pool(4);
  std::vector<MachineId> order(kMachines);
  for (MachineId i = 0; i < kMachines; ++i) order[i] = i;
  stats::Rng plan_rng(22);
  for (int round = 0; round < 30; ++round) {
    stats::shuffle(order.begin(), order.end(), plan_rng);
    std::vector<std::vector<JobId>> to_a(kMachines / 2);
    std::vector<std::vector<JobId>> to_b(kMachines / 2);
    for (std::size_t p = 0; p < kMachines / 2; ++p) {
      const MachineId a = order[2 * p];
      const MachineId b = order[2 * p + 1];
      std::vector<JobId> jobs;
      for (const MachineId i : {a, b}) {
        const LoadTable::JobList row = sequential.jobs_on(i);
        jobs.insert(jobs.end(), row.begin(), row.end());
      }
      std::sort(jobs.begin(), jobs.end());
      stats::Rng split_rng(1000 * round + p);
      stats::shuffle(jobs.begin(), jobs.end(), split_rng);
      const std::size_t cut = split_rng.below(jobs.size() + 1);
      to_a[p].assign(jobs.begin(),
                     jobs.begin() + static_cast<std::ptrdiff_t>(cut));
      to_b[p].assign(jobs.begin() + static_cast<std::ptrdiff_t>(cut),
                     jobs.end());
    }
    const auto split = [&](Schedule& s, std::size_t p) {
      const MachineId a = order[2 * p];
      const MachineId b = order[2 * p + 1];
      if (!whole) {
        s.move_split(a, to_a[p], b, to_b[p]);
        return;
      }
      s.write_split(a, to_a[p], b, to_b[p], /*in_order=*/false);
      if (!to_a[p].empty()) s.move(to_a[p].front(), b);
    };
    parallel::parallel_for(pool, kMachines / 2,
                           [&](std::size_t p) { split(concurrent, p); });
    for (std::size_t p = 0; p < kMachines / 2; ++p) split(sequential, p);
    for (MachineId i = 0; i < kMachines; ++i) {
      const LoadTable::JobList row = concurrent.jobs_on(i);
      const LoadTable::JobList replay = sequential.jobs_on(i);
      ASSERT_EQ(std::set<JobId>(row.begin(), row.end()),
                std::set<JobId>(replay.begin(), replay.end()))
          << "round " << round << ", machine " << i;
      if (whole) {
        EXPECT_TRUE(std::equal(row.begin(), row.end(), replay.begin(),
                               replay.end()))
            << "round " << round << ", machine " << i;
      }
      EXPECT_EQ(bits(concurrent.load(i)), bits(sequential.load(i)));
      EXPECT_EQ(concurrent.arrivals(i), sequential.arrivals(i));
    }
    EXPECT_EQ(concurrent.migrations(), sequential.migrations());
    EXPECT_EQ(bits(concurrent.makespan()), bits(sequential.makespan()));
    ASSERT_TRUE(concurrent.check_consistency()) << "round " << round;
  }
}

TEST(LoadTableRows, ConcurrentDisjointPairSplitsMatchASequentialReplay) {
  expect_concurrent_splits_match_a_replay(/*whole=*/false);
}

TEST(LoadTableRows, ConcurrentWholeRowWritesMatchASequentialReplay) {
  expect_concurrent_splits_match_a_replay(/*whole=*/true);
}

}  // namespace
}  // namespace dlb
