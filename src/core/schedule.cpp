#include "core/schedule.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "stats/rng.hpp"

namespace dlb {

namespace {

/// Machine i's costs: cost(i, j) is row[j] * scale, the product
/// Instance::cost forms, with i's group row and scale read once.
struct CostRow {
  CostRow(const Instance& instance, MachineId i)
      : row(instance.group_row(instance.group_of(i)).data()),
        scale(instance.scale(i)) {}
  Cost operator()(JobId j) const noexcept { return row[j] * scale; }
  const Cost* row;
  double scale;
};

}  // namespace

Schedule::Schedule(const Instance& instance)
    : instance_(&instance),
      assignment_(instance.num_jobs()),
      table_(instance.num_machines(), instance.num_jobs()) {}

Schedule::Schedule(const Instance& instance, Assignment assignment)
    : instance_(&instance),
      assignment_(std::move(assignment)),
      table_(instance.num_machines(), instance.num_jobs(),
             assignment_.raw()) {
  if (assignment_.num_jobs() != instance.num_jobs()) {
    throw std::invalid_argument("Schedule: assignment/instance job mismatch");
  }
  for (JobId j = 0; j < assignment_.num_jobs(); ++j) {
    const MachineId i = assignment_.machine_of(j);
    if (i == kUnassigned) continue;
    if (i >= instance.num_machines()) {
      throw std::invalid_argument(
          "Schedule: assignment references bad machine");
    }
    table_.attach(j, i, instance.cost(i, j), /*migrated=*/false);
  }
}

Schedule::Schedule(const Schedule& other)
    : instance_(other.instance_),
      decision_instance_(other.decision_instance_),
      decision_loads_(other.decision_loads_),
      assignment_(other.assignment_),
      table_(other.table_),
      migrations_(other.migrations()),
      cached_makespan_(other.cached_makespan_),
      cached_holder_(other.cached_holder_) {}

Schedule& Schedule::operator=(const Schedule& other) {
  if (this == &other) return *this;
  instance_ = other.instance_;
  decision_instance_ = other.decision_instance_;
  decision_loads_ = other.decision_loads_;
  assignment_ = other.assignment_;
  table_ = other.table_;
  migrations_.store(other.migrations(), std::memory_order_relaxed);
  cached_makespan_ = other.cached_makespan_;
  cached_holder_ = other.cached_holder_;
  return *this;
}

void Schedule::set_decision_instance(
    std::shared_ptr<const Instance> surrogate) {
  if (surrogate && (surrogate->num_machines() != instance_->num_machines() ||
                    surrogate->num_jobs() != instance_->num_jobs())) {
    throw std::invalid_argument(
        "Schedule::set_decision_instance: shape mismatch with the real "
        "instance");
  }
  if (surrogate != decision_instance_) table_.clear_order();
  decision_instance_ = std::move(surrogate);
  if (!decision_instance_) {
    decision_loads_.clear();
    return;
  }
  // Canonical rebuild in ascending job id -- bitwise the constructor's
  // billing order, so equal surrogate costs give equal accumulator bits.
  decision_loads_.assign(instance_->num_machines(), 0.0);
  for (JobId j = 0; j < assignment_.num_jobs(); ++j) {
    const MachineId i = assignment_.machine_of(j);
    if (i == kUnassigned) continue;
    decision_loads_[i] += decision_instance_->cost(i, j);
  }
}

Cost Schedule::makespan() const {
  // Untouched loads are unchanged, so they are at most the cached max, and
  // the holder still holds it unless the holder itself lost load.
  bool rescan = false;
  for (const MachineId i : table_.touched()) {
    const Cost load = table_.load(i);
    if (i == cached_holder_ && load < cached_makespan_) {
      rescan = true;
      break;
    }
    if (load > cached_makespan_) {
      cached_makespan_ = load;
      cached_holder_ = i;
    }
  }
  table_.clear_touched();
  if (rescan) {
    const std::span<const Cost> loads = table_.loads();
    const auto it = std::max_element(loads.begin(), loads.end());
    cached_makespan_ = it == loads.end() ? 0.0 : *it;
    cached_holder_ = static_cast<MachineId>(it - loads.begin());
  }
  return cached_makespan_;
}

MachineId Schedule::argmax_load() const {
  const std::span<const Cost> loads = table_.loads();
  return static_cast<MachineId>(
      std::max_element(loads.begin(), loads.end()) - loads.begin());
}

void Schedule::assign(JobId j, MachineId i) {
  if (assignment_.machine_of(j) != kUnassigned) {
    throw std::logic_error("Schedule::assign: job already assigned");
  }
  assignment_.assign(j, i);
  table_.attach(j, i, instance_->cost(i, j), /*migrated=*/false);
  if (decision_instance_) decision_loads_[i] += decision_instance_->cost(i, j);
}

bool Schedule::settle(JobId j, MachineId from, MachineId to) {
  if (from == kUnassigned) {
    assign(j, to);
    return false;
  }
  table_.append(j, to);
  table_.debit(from, instance_->cost(from, j));
  assignment_.assign(j, to);
  table_.credit(to, instance_->cost(to, j), /*migrated=*/true);
  if (decision_instance_) {
    decision_loads_[from] -= decision_instance_->cost(from, j);
    decision_loads_[to] += decision_instance_->cost(to, j);
  }
  return true;
}

void Schedule::move(JobId j, MachineId to) {
  const MachineId from = assignment_.machine_of(j);
  if (from == to) return;
  if (from != kUnassigned) table_.take(j, from);
  if (settle(j, from, to)) {
    migrations_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Schedule::move_split(MachineId a, std::span<const JobId> to_a,
                          MachineId b, std::span<const JobId> to_b) {
  // Every leaving job gives up its row slot before any job arrives, so a
  // row never holds more than the larger of its counts before and after
  // the split. Moved one at a time, a's row would first take all of
  // to_a's arrivals on top of the jobs still to leave for b.
  const auto leave = [&](std::span<const JobId> jobs, MachineId to) {
    for (const JobId j : jobs) {
      const MachineId from = assignment_.machine_of(j);
      if (from != to && from != kUnassigned) table_.take(j, from);
    }
  };
  leave(to_a, a);
  leave(to_b, b);
  bool changed = false;
  std::uint64_t migrated = 0;
  const auto deliver = [&](std::span<const JobId> jobs, MachineId to) {
    for (const JobId j : jobs) {
      const MachineId from = assignment_.machine_of(j);
      if (from == to) continue;
      changed = true;
      migrated += settle(j, from, to) ? 1 : 0;
    }
  };
  deliver(to_a, a);
  deliver(to_b, b);
  // One locked add per split rather than one per move: a locked add drains
  // the store buffer, which kept consecutive moves' cache misses from
  // overlapping.
  if (migrated != 0) {
    migrations_.fetch_add(migrated, std::memory_order_relaxed);
  }
  return changed;
}

bool Schedule::write_split(MachineId a, std::span<const JobId> to_a,
                           MachineId b, std::span<const JobId> to_b,
                           bool in_order) {
  assert(splits_pair(a, to_a, b, to_b));
  // Room first: a failed growth leaves the schedule as it was.
  table_.reserve_row(a, to_a.size());
  table_.reserve_row(b, to_b.size());
  // Every job is on a or b, so a job that does not stay comes from the
  // other machine, and move_split's deliver loops reduce to settle's
  // debit and credit. Each of the six accumulators below takes settle's
  // += / -= sequence exactly, so its bits are the same, but in a register:
  // the table is written once per machine, not once per mover.
  const Instance* decision = decision_instance_.get();
  const CostRow real_a(*instance_, a);
  const CostRow real_b(*instance_, b);
  const CostRow decision_a = decision ? CostRow(*decision, a) : real_a;
  const CostRow decision_b = decision ? CostRow(*decision, b) : real_b;
  Cost load_a = table_.load(a);
  Cost load_b = table_.load(b);
  Cost decision_load_a = decision ? decision_loads_[a] : 0.0;
  Cost decision_load_b = decision ? decision_loads_[b] : 0.0;
  std::uint64_t into_a = 0;
  std::uint64_t into_b = 0;
  for (const JobId j : to_a) {
    if (assignment_.machine_of(j) == a) continue;
    load_b -= real_b(j);
    assignment_.assign(j, a);
    load_a += real_a(j);
    if (decision) {
      decision_load_b -= decision_b(j);
      decision_load_a += decision_a(j);
    }
    ++into_a;
  }
  for (const JobId j : to_b) {
    if (assignment_.machine_of(j) == b) continue;
    load_a -= real_a(j);
    assignment_.assign(j, b);
    load_b += real_b(j);
    if (decision) {
      decision_load_a -= decision_a(j);
      decision_load_b += decision_b(j);
    }
    ++into_b;
  }
  const std::uint64_t migrated = into_a + into_b;
  if (migrated != 0) {
    // The first mover's debit touches its source first: b when it went to
    // a, else a.
    if (into_a != 0) {
      table_.bill(b, load_b, into_b);
      table_.bill(a, load_a, into_a);
    } else {
      table_.bill(a, load_a, into_a);
      table_.bill(b, load_b, into_b);
    }
    if (decision) {
      decision_loads_[a] = decision_load_a;
      decision_loads_[b] = decision_load_b;
    }
    migrations_.fetch_add(migrated, std::memory_order_relaxed);
  }
  table_.write_row(a, to_a, in_order);
  table_.write_row(b, to_b, in_order);
  return migrated != 0;
}

bool Schedule::splits_pair(MachineId a, std::span<const JobId> to_a,
                           MachineId b, std::span<const JobId> to_b) const {
  if (a == b ||
      to_a.size() + to_b.size() != table_.count(a) + table_.count(b)) {
    return false;
  }
  // O(pool log pool), not O(n): Debug runs check every kernel call.
  std::vector<JobId> jobs(to_a.begin(), to_a.end());
  jobs.insert(jobs.end(), to_b.begin(), to_b.end());
  std::sort(jobs.begin(), jobs.end());
  if (std::adjacent_find(jobs.begin(), jobs.end()) != jobs.end()) return false;
  return std::all_of(jobs.begin(), jobs.end(), [&](JobId j) {
    if (j >= assignment_.num_jobs()) return false;
    const MachineId on = assignment_.machine_of(j);
    return on == a || on == b;
  });
}

void Schedule::unassign(JobId j) {
  const MachineId from = assignment_.machine_of(j);
  if (from == kUnassigned) return;
  table_.detach(j, from, instance_->cost(from, j));
  if (decision_instance_) {
    decision_loads_[from] -= decision_instance_->cost(from, j);
  }
  assignment_.unassign(j);
}

void Schedule::restore_loads(const std::vector<Cost>& loads) {
  if (loads.size() != table_.num_machines()) {
    throw std::invalid_argument(
        "Schedule::restore_loads: expected " +
        std::to_string(table_.num_machines()) + " loads, got " +
        std::to_string(loads.size()));
  }
  for (MachineId i = 0; i < loads.size(); ++i) restore_load(i, loads[i]);
}

std::uint64_t Schedule::fingerprint() const {
  // Position-dependent mix of (job, machine); order-insensitive across jobs
  // because each job contributes a value derived from its own id.
  std::uint64_t h = 0x51ab5f2e8c774177ULL;
  for (JobId j = 0; j < assignment_.num_jobs(); ++j) {
    std::uint64_t x = (static_cast<std::uint64_t>(j) << 32) |
                      static_cast<std::uint64_t>(assignment_.machine_of(j));
    h ^= stats::splitmix64(x);
  }
  return h;
}

Cost Schedule::total_load() const noexcept {
  Cost total = 0.0;
  for (Cost l : table_.loads()) total += l;
  return total;
}

bool Schedule::check_consistency(double tol) const {
  if (!table_.rows_consistent()) return false;
  const std::size_t m = table_.num_machines();
  std::vector<Cost> expected(m, 0.0);
  std::vector<char> seen(assignment_.num_jobs(), 0);
  for (MachineId i = 0; i < m; ++i) {
    std::size_t listed = 0;
    for (JobId j : table_.jobs(i)) {
      if (assignment_.machine_of(j) != i) return false;
      if (seen[j]) return false;
      seen[j] = 1;
      expected[i] += instance_->cost(i, j);
      ++listed;
    }
    if (listed != table_.count(i)) return false;
  }
  for (JobId j = 0; j < assignment_.num_jobs(); ++j) {
    if (assignment_.machine_of(j) != kUnassigned && !seen[j]) return false;
  }
  for (MachineId i = 0; i < m; ++i) {
    if (std::abs(expected[i] - table_.load(i)) > tol) return false;
  }
  return true;
}

std::vector<JobId> sorted_jobs_on(const Schedule& schedule, MachineId i) {
  const LoadTable::JobList row = schedule.jobs_on(i);
  std::vector<JobId> jobs(row.begin(), row.end());
  std::sort(jobs.begin(), jobs.end());
  return jobs;
}

}  // namespace dlb
