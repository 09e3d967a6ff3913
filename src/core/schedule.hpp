#pragma once

// Schedule: an Assignment bound to its Instance with incrementally
// maintained machine loads (completion times C(i)), per-machine job lists,
// and a fingerprint for cycle detection. This is the mutable state every
// balancing kernel and simulator operates on.
//
// Storage: per-machine state lives in a LoadTable (flat arrays, one
// contiguous id row per machine), so moving a job is O(1). Cmax is cached
// with the machine that holds it; the LoadTable records which machines'
// loads changed, and makespan() folds only those into the cache.
// Concurrency contract (what ParallelExchangeEngine relies on; see
// docs/parallelism.md): mutations on disjoint machine pairs may run
// concurrently — they touch disjoint LoadTable entries (touched flags
// included) and disjoint assignment slots, while the global migration
// total and the touched-list length are relaxed atomics. makespan(),
// fingerprint() and the other whole-schedule reads must not race with
// any mutation.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/assignment.hpp"
#include "core/instance.hpp"
#include "core/load_table.hpp"
#include "core/types.hpp"

namespace dlb {

class Schedule {
 public:
  /// Empty schedule (all jobs unassigned). The instance must outlive the
  /// schedule.
  explicit Schedule(const Instance& instance);

  /// Adopts an initial distribution; unassigned jobs are allowed (they
  /// simply do not contribute load) but most algorithms expect a complete
  /// assignment.
  Schedule(const Instance& instance, Assignment assignment);

  // The atomic migration total is not copyable by default; copies
  // snapshot its current value.
  Schedule(const Schedule& other);
  Schedule& operator=(const Schedule& other);

  [[nodiscard]] const Instance& instance() const noexcept { return *instance_; }
  [[nodiscard]] const Assignment& assignment() const noexcept {
    return assignment_;
  }

  // ----- decision instance (risk-aware balancing, core/risk.hpp) -----
  // Kernels and selectors *reason* about the decision instance while loads
  // keep billing the real one -- the prediction/reality seam risk-aware
  // balancing plugs a risk-adjusted surrogate into. Unset means decisions
  // see the real instance. PairKernel::prepare() attaches it once per run
  // from the engine's single-threaded setup path; mutating it while
  // sessions are in flight is a race.

  /// The instance balancing decisions are made against (the attached
  /// surrogate, or instance() when none is attached).
  [[nodiscard]] const Instance& decision_instance() const noexcept {
    return decision_instance_ ? *decision_instance_ : *instance_;
  }
  [[nodiscard]] bool has_decision_instance() const noexcept {
    return decision_instance_ != nullptr;
  }
  /// Attaches (or, with null, detaches) a surrogate decision instance. It
  /// must match the real instance's machine/job shape. Attaching rebuilds
  /// the decision-load accumulators canonically (ascending job id --
  /// the same order the constructor billed the real loads in, so a
  /// surrogate whose costs are bitwise equal to the real ones yields
  /// bitwise-equal accumulators on a freshly built schedule). A different
  /// instance than the current one clears every row_in_order flag.
  void set_decision_instance(std::shared_ptr<const Instance> surrogate);

  /// Machine i's load as the decision instance prices it. Maintained
  /// incrementally alongside the real accumulator with the identical
  /// sequence of += / -= operations, so kernels comparing decision loads
  /// stay bitwise reproducible; falls back to load(i) (the same
  /// accumulator bits the mean-based path reads) when no surrogate is
  /// attached. NOT restored by restore_loads(): a resumed run rebuilds it
  /// via PairKernel::prepare().
  [[nodiscard]] Cost decision_load(MachineId i) const noexcept {
    return decision_instance_ ? decision_loads_[i] : table_.load(i);
  }

  [[nodiscard]] std::size_t num_machines() const noexcept {
    return table_.num_machines();
  }
  [[nodiscard]] std::size_t num_jobs() const noexcept {
    return assignment_.num_jobs();
  }

  /// Completion time C(i) = sum of p(i, j) over jobs on i.
  [[nodiscard]] Cost load(MachineId i) const noexcept {
    return table_.load(i);
  }

  /// Cmax = max_i C(i), bitwise the max over all loads. Walks only the
  /// machines whose load changed since the previous call (all of them
  /// after restore_loads()), and rescans all m loads only when the machine
  /// holding the cached max lost load. With pairwise exchanges that makes
  /// it O(1) amortized per exchange.
  /// Whole-schedule read: never call concurrently with a mutation.
  [[nodiscard]] Cost makespan() const;

  /// Machine currently holding the makespan (smallest id on ties).
  [[nodiscard]] MachineId argmax_load() const;

  [[nodiscard]] MachineId machine_of(JobId j) const noexcept {
    return assignment_.machine_of(j);
  }

  /// Jobs on machine i, in unspecified order. The view is invalidated by
  /// any mutation touching machine i.
  [[nodiscard]] LoadTable::JobList jobs_on(MachineId i) const noexcept {
    return table_.jobs(i);
  }

  /// Requests job j's assignment slot and row position into the cache
  /// ahead of an assign, move or unassign. Changes no state; always inlined,
  /// like LoadTable::prefetch.
  [[gnu::always_inline]] void prefetch(JobId j) const noexcept {
    __builtin_prefetch(assignment_.raw().data() + j, 1);
    table_.prefetch(j);
  }

  /// Places an unassigned job.
  void assign(JobId j, MachineId i);

  /// Reassigns job j to machine `to` (no-op if already there).
  void move(JobId j, MachineId to);

  /// move(j, a) for every job of `to_a` in order, then move(j, b) for every
  /// job of `to_b`: the same load updates in the same order, but the split's
  /// migrations reach migrations() in one relaxed add after both loops, and
  /// every leaving job leaves its row before any job arrives. A job may
  /// appear at most once in to_a and to_b together. Returns true iff any
  /// job's machine changed (placements of unassigned jobs included). The
  /// pair kernels' apply_split.
  bool move_split(MachineId a, std::span<const JobId> to_a, MachineId b,
                  std::span<const JobId> to_b);

  /// move_split for a split that partitions exactly the jobs on a and b
  /// (checked in Debug builds), after which a's row becomes `to_a` and b's
  /// row `to_b`, each written whole. The split is billed once: each of
  /// a's and b's real and decision loads is summed in a local with
  /// move_split's += / -= sequence, so its bits are move_split's, and is
  /// stored once with its arrivals. Both machines are touched in
  /// move_split's order (the first mover's source first), and only when a
  /// job moves. `in_order` sets both rows' in-order flags (row_in_order):
  /// the caller vouches that to_a ascends in a's cluster's ratio order and
  /// to_b in b's, under the decision instance. The whole-pool kernels'
  /// apply.
  bool write_split(MachineId a, std::span<const JobId> to_a, MachineId b,
                   std::span<const JobId> to_b, bool in_order);

  /// True when machine i's row ascends in its own cluster's ratio order
  /// (ties in any order) under the decision instance: the row was last
  /// written by write_split with `in_order`, and has not changed since.
  [[nodiscard]] bool row_in_order(MachineId i) const noexcept {
    return table_.in_order(i);
  }

  /// Removes job j from its machine (becomes unassigned).
  void unassign(JobId j);

  /// Order-insensitive hash of the full assignment; equal assignments have
  /// equal fingerprints (used for cycle detection in Section VII).
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Total work currently placed: sum_i C(i).
  [[nodiscard]] Cost total_load() const noexcept;

  /// Number of effective job migrations so far: every move() that changed
  /// a job's machine (assign/unassign excluded). The decentralized setting
  /// cares about this as a proxy for network usage (the paper's conclusion
  /// singles out minimizing the number of tasks exchanged). move_split()
  /// adds a whole split at once, so read it between kernel calls.
  [[nodiscard]] std::uint64_t migrations() const noexcept {
    return migrations_.load(std::memory_order_relaxed);
  }

  /// Migrations that delivered a job onto machine i (monotone). Disjoint
  /// pair sessions update disjoint entries; the parallel engine diffs the
  /// two machines it owns for a race-free per-session migration count.
  [[nodiscard]] std::uint64_t arrivals(MachineId i) const noexcept {
    return table_.arrivals(i);
  }

  // ----- elastic machine-set membership (src/dist/churn) -----
  // Every machine starts live; the churn runtime flips the mask as
  // machines join, drain, or crash. A dead machine must hold no jobs —
  // the churn runtime evacuates/orphans residents before flipping.

  [[nodiscard]] bool is_live(MachineId i) const noexcept {
    return table_.is_live(i);
  }
  [[nodiscard]] std::size_t num_live() const noexcept {
    return table_.num_live();
  }
  [[nodiscard]] std::span<const std::uint8_t> live_mask() const noexcept {
    return table_.live_mask();
  }
  void set_live(MachineId i, bool live) noexcept { table_.set_live(i, live); }

  /// Overwrites every per-machine load accumulator (src/dist/checkpoint
  /// restore). Incremental load sums are order-dependent in the last ulp,
  /// so bitwise-identical resumption needs the frozen accumulator bits —
  /// recomputing from the assignment is only equal up to rounding.
  void restore_loads(const std::vector<Cost>& loads);

  /// Overwrites one machine's load accumulator, leaving the other m - 1
  /// untouched (the lockstep protocol's per-session canonical sums).
  void restore_load(MachineId i, Cost load) noexcept {
    table_.set_load(i, load);
  }

  /// Recomputes loads from scratch and checks internal consistency.
  /// Returns true if the incremental state matches (tests use this to
  /// guard against drift; tolerance covers FP accumulation error).
  [[nodiscard]] bool check_consistency(double tol = 1e-6) const;

 private:
  /// move()'s body after the row half: job j's slot on `from` (!= to) is
  /// already free. Places an unassigned job, else debits `from`, reassigns
  /// j and credits `to` (an arrival), in real and decision loads. Returns
  /// true iff that was a migration.
  bool settle(JobId j, MachineId from, MachineId to);
  /// write_split's precondition: to_a and to_b together list each job on
  /// a and b exactly once, and no other job.
  [[nodiscard]] bool splits_pair(MachineId a, std::span<const JobId> to_a,
                                 MachineId b,
                                 std::span<const JobId> to_b) const;

  const Instance* instance_;
  std::shared_ptr<const Instance> decision_instance_;
  /// Per-machine loads in decision-instance costs; empty when no
  /// surrogate is attached. Updated in lockstep with table_'s loads.
  std::vector<Cost> decision_loads_;
  Assignment assignment_;
  LoadTable table_;
  std::atomic<std::uint64_t> migrations_{0};
  // Cmax as of the last makespan() call and a machine that held it; loads
  // outside table_.touched() have not changed since. A new table has all
  // loads 0, which this starts as.
  mutable Cost cached_makespan_ = 0.0;
  mutable MachineId cached_holder_ = 0;
};

/// The jobs on machine i, ascending by id: a deterministic order for
/// readers that must not depend on row order.
[[nodiscard]] std::vector<JobId> sorted_jobs_on(const Schedule& schedule,
                                                MachineId i);

}  // namespace dlb
