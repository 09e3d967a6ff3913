#pragma once

// LoadTable: the per-machine half of a Schedule — machine loads and
// per-machine job membership. Layout:
//   * each machine's jobs are one contiguous row of ids, and each job owns
//     one slot pos[j] naming its place in its row. Attach appends; detach
//     moves the row's last id into the freed place and fixes that job's
//     slot, so both are O(1), and gathering a row is a sequential read.
//     write_row replaces a row whole and leaves its jobs' slots stale: the
//     row's first take re-indexes it once, in O(row), an attach to it
//     skips the slot write, and nothing else reads pos;
//   * the job-indexed slots, the machine-indexed state (count, load,
//     arrivals, live and touched flags, row state, row base and capacity)
//     and the rows are carved out of one page-aligned slab, each array
//     padded to a cache line. A table built from a placement (or copied)
//     sizes each row's segment from its count, with an eighth of slack
//     (at least 4 slots); an empty table's rows start without storage.
//     Slabs of 128 KiB and more are mapped (core/numa.hpp) and go back to
//     the kernel with the table;
//   * a row that outgrows its segment moves to a heap block of 1.5× its
//     capacity, or of the size a whole write needs when that is more
//     (std::realloc after the first move). Only the session that
//     owns a machine grows its row, and malloc is thread-safe, so sessions
//     on disjoint pairs grow rows concurrently;
//   * two sessions on disjoint machine pairs touch disjoint entries of
//     every array and disjoint rows, which is what lets
//     ParallelExchangeEngine run sessions concurrently without
//     synchronising on the table itself;
//   * every load change records its machine in a touched set (a flag per
//     machine plus a list), which Schedule::makespan() drains to keep
//     Cmax incrementally. The set lives in the slab, so tracking it adds
//     no allocation to a Schedule.
//
// Row order. A row written whole (Schedule::write_split) is in the order
// its writer dealt it; after that, attach appends and detach swap-removes.
// The two ratio kernels (pair CLB2C and the same-cluster greedy) deal
// their split from a pool in one cluster's p_own / p_other order, so each
// side comes out ascending in its own machine's cluster order, and they
// write it with the row's in-order flag set. The flag lives in the row
// state byte next to the stale bit; attach and take clear it, and
// Schedule::set_decision_instance clears every flag when the decision
// instance changes, since the order is that instance's. The readers of
// row order, audited:
//   * the two ratio kernels merge two flagged rows into their pool
//     (pairwise::ratio_sorted_pool) and fix each run of exact duplicates
//     into id order, which equals the sort of the pool, so the merge
//     relies on the flag and on nothing else about row order; a pool with
//     an unflagged row is gathered and sorted;
//   * the other kernels gather both rows (pooled_jobs_into) and sort the
//     pool by id, so the row order never shows;
//   * churn, local search and TransportRunner::sorted_jobs read rows
//     through sorted_jobs_on (core/schedule.hpp), which sorts by id;
//   * the open engine's start_next takes the FIFO minimum over
//     (arrival time, job id), a total order;
//   * Schedule::check_consistency compares its per-row sums within a
//     tolerance and counts membership, so order cannot flip its answer.
// Loads are accumulators of the attach/detach/credit/debit sequence, not
// of row order.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "core/numa.hpp"
#include "core/types.hpp"

namespace dlb {

class LoadTable {
 public:
  LoadTable() = default;

  /// A table of empty rows; each row gets storage on its first attach.
  LoadTable(std::size_t num_machines, std::size_t num_jobs)
      : LoadTable(num_machines, num_jobs, {}) {}

  /// A table of empty rows sized for `placement` (the machine of each job;
  /// kUnassigned and out-of-range entries are skipped), so attaching that
  /// placement moves no row. Attaches nothing itself.
  LoadTable(std::size_t num_machines, std::size_t num_jobs,
            std::span<const MachineId> placement) {
    std::vector<std::size_t> counts(placement.empty() ? 0 : num_machines, 0);
    for (const MachineId i : placement) {
      if (i < num_machines) ++counts[i];
    }
    // count/loads/arrivals stay at the first-touch zero fill.
    init(num_machines, num_jobs, counts);
    std::memset(live_, 1, num_machines);
    num_live_ = num_machines;
  }

  LoadTable(const LoadTable& other) { copy_from(other); }
  LoadTable& operator=(const LoadTable& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  LoadTable(LoadTable&& other) noexcept { swap(other); }
  LoadTable& operator=(LoadTable&& other) noexcept {
    if (this != &other) swap(other);
    return *this;
  }
  ~LoadTable() { free_moved_rows(); }

  [[nodiscard]] std::size_t num_machines() const noexcept {
    return num_machines_;
  }

  // ----- elastic machine-set membership (src/dist/churn) -----
  //
  // A dead machine keeps its slots (ids stay stable across churn) but is
  // expected to hold no jobs: crashes orphan their residents and drains
  // migrate them out before the mask flips. Nothing here enforces that —
  // the churn runtime does, and check::check_churn_conservation verifies.

  [[nodiscard]] bool is_live(MachineId i) const noexcept {
    return live_[i] != 0;
  }
  [[nodiscard]] std::size_t num_live() const noexcept { return num_live_; }
  [[nodiscard]] std::span<const std::uint8_t> live_mask() const noexcept {
    return {live_, num_machines_};
  }
  void set_live(MachineId i, bool live) noexcept {
    if ((live_[i] != 0) == live) return;
    live_[i] = live ? 1 : 0;
    num_live_ += live ? 1 : std::size_t(-1);
  }

  [[nodiscard]] Cost load(MachineId i) const noexcept { return loads_[i]; }
  [[nodiscard]] std::span<const Cost> loads() const noexcept {
    return {loads_, num_machines_};
  }
  /// Overwrites one load accumulator (src/dist/checkpoint restore): the
  /// incremental sum is order-dependent in the last ulp, so a resumed run
  /// must inherit the accumulator bits, not a from-scratch recomputation.
  void set_load(MachineId i, Cost load) noexcept {
    loads_[i] = load;
    touch(i);
  }
  [[nodiscard]] std::size_t count(MachineId i) const noexcept {
    return count_[i];
  }

  // ----- touched machines (Schedule's incremental Cmax) -----
  //
  // attach, detach and set_load record their machine once until the next
  // clear_touched(). A first touch sets the machine's flag and claims a
  // list slot with one relaxed fetch_add, so sessions on disjoint
  // machines write disjoint flags and slots.

  /// Machines whose load changed since the last clear_touched(), each
  /// listed once. Must not race with a mutation.
  [[nodiscard]] std::span<const MachineId> touched() const noexcept {
    return {touched_list_, num_touched_.load(std::memory_order_relaxed)};
  }
  /// Empties the touched set. Const because the set is bookkeeping for
  /// readers (Schedule::makespan() const drains it); must not race with a
  /// mutation.
  void clear_touched() const noexcept {
    for (const MachineId i : touched()) touched_[i] = 0;
    num_touched_.store(0, std::memory_order_relaxed);
  }

  /// Jobs that ever arrived on machine i via attach() (monotone). Disjoint
  /// pair sessions update disjoint entries, so the parallel engine reads
  /// race-free per-session migration deltas from the two machines it owns.
  [[nodiscard]] std::uint64_t arrivals(MachineId i) const noexcept {
    return arrivals_[i];
  }

  /// The jobs currently on one machine, in row order. Invalidated by any
  /// attach/detach on that machine.
  using JobList = std::span<const JobId>;

  [[nodiscard]] JobList jobs(MachineId i) const noexcept {
    return {rows_[i], count_[i]};
  }

  /// Appends job j to machine i's row and adds `cost` to its load. j must
  /// not be attached anywhere. `migrated` marks reassignments (counted in
  /// arrivals) as opposed to first placements. Throws std::bad_alloc when
  /// a full row cannot move.
  void attach(JobId j, MachineId i, Cost cost, bool migrated) {
    append(j, i);
    credit(i, cost, migrated);
  }

  /// attach's row half: appends job j to machine i's row and leaves the
  /// load alone. Clears the row's in-order flag.
  void append(JobId j, MachineId i) {
    std::size_t& count = count_[i];
    if (count == cap_[i]) [[unlikely]] grow_row(i, count + 1);
    rows_[i][count] = j;
    const std::uint8_t state = state_[i];
    if ((state & kStale) == 0) pos_[j] = static_cast<JobId>(count);
    if ((state & kInOrder) != 0) state_[i] = kStale;  // in order => stale
    ++count;
  }

  /// attach's load half: adds `cost` to machine i's load, counting an
  /// arrival when `migrated`.
  void credit(MachineId i, Cost cost, bool migrated) noexcept {
    loads_[i] += cost;
    if (migrated) ++arrivals_[i];
    touch(i);
  }

  /// Requests job j's position slot into the cache ahead of an attach or
  /// detach. Issues prefetches only; reads and writes no table state.
  /// Always inlined: GCC deletes a call to a function whose body is only
  /// prefetches, as a call without effects.
  [[gnu::always_inline]] void prefetch(JobId j) const noexcept {
    __builtin_prefetch(pos_ + j, 1);
  }

  /// Removes job j from machine i's row, moving the row's last job into
  /// its place, and subtracts `cost` from the load. O(1).
  void detach(JobId j, MachineId i, Cost cost) noexcept {
    take(j, i);
    debit(i, cost);
  }

  /// detach's row half: removes job j from machine i's row and leaves the
  /// load alone. Schedule::move_split frees every leaving job's slot
  /// before any job arrives, then debits each load in delivery order.
  /// Clears the row's in-order flag; the first take from a row written
  /// whole re-indexes that row.
  void take(JobId j, MachineId i) noexcept {
    if (state_[i] != 0) [[unlikely]] reindex(i);
    JobId* row = rows_[i];
    const JobId at = pos_[j];
    const JobId last = row[--count_[i]];
    row[at] = last;
    pos_[last] = at;
  }

  /// detach's load half, for a job take() already removed.
  void debit(MachineId i, Cost cost) noexcept {
    loads_[i] -= cost;
    touch(i);
  }

  /// A whole split's load half for machine i: stores the load the caller
  /// summed (Schedule::write_split), adds `arrived` to its arrivals and
  /// touches it, as that split's credits and debits would have.
  void bill(MachineId i, Cost load, std::uint64_t arrived) noexcept {
    loads_[i] = load;
    arrivals_[i] += arrived;
    touch(i);
  }

  // ----- whole rows (the ratio kernels' split) -----

  /// Makes room for `count` jobs in machine i's row, keeping its jobs.
  /// Called before write_row so that a failed growth changes nothing.
  /// Throws std::bad_alloc when the row cannot move.
  void reserve_row(MachineId i, std::size_t count) {
    if (count > cap_[i]) grow_row(i, count);
  }

  /// Replaces machine i's row with `jobs` (reserve_row must have made room)
  /// and leaves the load alone. The row's positions go stale until its
  /// next take. `in_order` sets the in-order flag: the caller vouches that
  /// `jobs` ascend in i's own cluster's ratio order under the schedule's
  /// decision instance, ties in any order.
  void write_row(MachineId i, std::span<const JobId> jobs,
                 bool in_order) noexcept {
    if (!jobs.empty()) {
      std::memcpy(rows_[i], jobs.data(), jobs.size() * sizeof(JobId));
    }
    count_[i] = jobs.size();
    state_[i] = in_order ? kStale | kInOrder : kStale;
  }

  /// True when machine i's row was last written whole with `in_order` and
  /// has not gained or lost a job since, nor seen clear_order().
  [[nodiscard]] bool in_order(MachineId i) const noexcept {
    return (state_[i] & kInOrder) != 0;
  }

  /// Clears every row's in-order flag (a new decision instance reorders
  /// every cluster).
  void clear_order() noexcept {
    for (std::size_t i = 0; i < num_machines_; ++i) state_[i] &= kStale;
  }

  /// True when every count fits its capacity, every row holds valid ids,
  /// and every indexed row's jobs name their own positions
  /// (Schedule::check_consistency).
  [[nodiscard]] bool rows_consistent() const noexcept {
    for (std::size_t i = 0; i < num_machines_; ++i) {
      if (count_[i] > cap_[i]) return false;
      const bool indexed = (state_[i] & kStale) == 0;
      for (std::size_t p = 0; p < count_[i]; ++p) {
        const JobId j = rows_[i][p];
        if (j >= num_jobs_ || (indexed && pos_[j] != p)) return false;
      }
    }
    return true;
  }

 private:
  // The first touch is out of line so that attach/detach, which every
  // kernel and the open-system event loop inline, stay small.
  void touch(MachineId i) noexcept {
    if (touched_[i] == 0) [[unlikely]] first_touch(i);
  }
  [[gnu::noinline]] void first_touch(MachineId i) noexcept {
    touched_[i] = 1;
    touched_list_[num_touched_.fetch_add(1, std::memory_order_relaxed)] = i;
  }

  // Row states (state_[i]): kStale marks a row written whole whose jobs'
  // pos_ slots were not written; kInOrder marks a row in its cluster's
  // ratio order. Only a stale row is ever in order.
  static constexpr std::uint8_t kStale = 1;
  static constexpr std::uint8_t kInOrder = 2;

  /// take()'s slow path: indexes a stale row's positions and clears the
  /// row's state. O(row), once per whole write.
  [[gnu::noinline]] void reindex(MachineId i) noexcept {
    if ((state_[i] & kStale) != 0) {
      const JobId* row = rows_[i];
      for (std::size_t p = 0; p < count_[i]; ++p) {
        pos_[row[p]] = static_cast<JobId>(p);
      }
    }
    state_[i] = 0;
  }

  /// True when `row` lies in the slab, not in a heap block of its own.
  [[nodiscard]] bool carved(const JobId* row) const noexcept {
    const auto at = reinterpret_cast<std::uintptr_t>(row);
    const auto base = reinterpret_cast<std::uintptr_t>(slab_.get());
    return at >= base && at < base + bytes_;
  }

  /// Moves a row that cannot hold `need` jobs to a heap block of 1.5× its
  /// capacity, or of `need` when that is more, at most the job count (a
  /// row never holds more).
  [[gnu::noinline]] void grow_row(MachineId i, std::size_t need) {
    const std::size_t cap = cap_[i];
    const std::size_t grown = std::min(
        std::max({cap + cap / 2, need, std::size_t{4}}), num_jobs_);
    JobId* row = rows_[i];
    JobId* moved = nullptr;
    if (carved(row)) {
      moved = static_cast<JobId*>(std::malloc(grown * sizeof(JobId)));
      if (moved != nullptr) std::memcpy(moved, row, count_[i] * sizeof(JobId));
    } else {
      moved = static_cast<JobId*>(std::realloc(row, grown * sizeof(JobId)));
    }
    if (moved == nullptr) throw std::bad_alloc();
    rows_[i] = moved;
    cap_[i] = static_cast<JobId>(grown);
  }

  void free_moved_rows() noexcept {
    for (std::size_t i = 0; i < num_machines_; ++i) {
      if (!carved(rows_[i])) std::free(rows_[i]);
    }
  }

  /// Allocates the slab (core/numa.hpp), zero-fills it with one memset,
  /// and binds the section pointers. Sections are cache-line padded:
  /// job-indexed positions first (the largest array), then machine-indexed
  /// state, then the row segments, one per machine with counts[i] > 0
  /// (`counts` empty: every row starts without storage). The row pointers
  /// and capacities come last among the arrays, so copy_from can copy the
  /// sections before them in one memcpy.
  void init(std::size_t num_machines, std::size_t num_jobs,
            std::span<const std::size_t> counts) {
    namespace numa = core::numa;
    const auto capacity = [&](std::size_t i) -> std::size_t {
      if (counts.empty() || counts[i] == 0) return 0;
      return std::min(counts[i] + std::max<std::size_t>(counts[i] / 8, 4),
                      num_jobs);
    };
    std::size_t slots = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) slots += capacity(i);
    const std::size_t off_pos = 0;
    const std::size_t off_count = numa::align_up(
        off_pos + num_jobs * sizeof(JobId), numa::kCacheLine);
    const std::size_t off_loads = numa::align_up(
        off_count + num_machines * sizeof(std::size_t), numa::kCacheLine);
    const std::size_t off_arrivals = numa::align_up(
        off_loads + num_machines * sizeof(Cost), numa::kCacheLine);
    const std::size_t off_live = numa::align_up(
        off_arrivals + num_machines * sizeof(std::uint64_t),
        numa::kCacheLine);
    const std::size_t off_touched = numa::align_up(
        off_live + num_machines * sizeof(std::uint8_t), numa::kCacheLine);
    const std::size_t off_touched_list = numa::align_up(
        off_touched + num_machines * sizeof(std::uint8_t), numa::kCacheLine);
    const std::size_t off_state = numa::align_up(
        off_touched_list + num_machines * sizeof(MachineId),
        numa::kCacheLine);
    const std::size_t off_rows = numa::align_up(
        off_state + num_machines * sizeof(std::uint8_t), numa::kCacheLine);
    const std::size_t off_cap = numa::align_up(
        off_rows + num_machines * sizeof(JobId*), numa::kCacheLine);
    const std::size_t off_segments = numa::align_up(
        off_cap + num_machines * sizeof(JobId), numa::kCacheLine);
    bytes_ = numa::align_up(off_segments + slots * sizeof(JobId),
                            numa::kCacheLine);
    slab_ = numa::alloc_slab(bytes_);
    if (slab_) std::memset(slab_.get(), 0, bytes_);
    std::byte* base = slab_.get();
    pos_ = reinterpret_cast<JobId*>(base + off_pos);
    count_ = reinterpret_cast<std::size_t*>(base + off_count);
    loads_ = reinterpret_cast<Cost*>(base + off_loads);
    arrivals_ = reinterpret_cast<std::uint64_t*>(base + off_arrivals);
    live_ = reinterpret_cast<std::uint8_t*>(base + off_live);
    touched_ = reinterpret_cast<std::uint8_t*>(base + off_touched);
    touched_list_ = reinterpret_cast<MachineId*>(base + off_touched_list);
    state_ = reinterpret_cast<std::uint8_t*>(base + off_state);
    rows_ = reinterpret_cast<JobId**>(base + off_rows);
    cap_ = reinterpret_cast<JobId*>(base + off_cap);
    auto* segment = reinterpret_cast<JobId*>(base + off_segments);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      cap_[i] = static_cast<JobId>(capacity(i));
      rows_[i] = cap_[i] == 0 ? nullptr : segment;
      segment += cap_[i];
    }
    num_touched_.store(0, std::memory_order_relaxed);
    num_machines_ = num_machines;
    num_jobs_ = num_jobs;
  }

  /// Copies every array but the row pointers and capacities, then copies
  /// each row in order into segments carved for the other table's counts,
  /// so positions carry over.
  void copy_from(const LoadTable& other) {
    LoadTable copy;
    if (other.slab_ != nullptr) {
      copy.init(other.num_machines_, other.num_jobs_,
                {other.count_, other.num_machines_});
      std::memcpy(copy.slab_.get(), other.slab_.get(),
                  reinterpret_cast<std::byte*>(other.rows_) -
                      other.slab_.get());
      copy.num_live_ = other.num_live_;
      copy.num_touched_.store(
          other.num_touched_.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      for (std::size_t i = 0; i < copy.num_machines_; ++i) {
        if (copy.count_[i] != 0) {
          std::memcpy(copy.rows_[i], other.rows_[i],
                      copy.count_[i] * sizeof(JobId));
        }
      }
    }
    swap(copy);
  }

  void swap(LoadTable& other) noexcept {
    std::swap(slab_, other.slab_);
    std::swap(bytes_, other.bytes_);
    std::swap(pos_, other.pos_);
    std::swap(rows_, other.rows_);
    std::swap(cap_, other.cap_);
    std::swap(count_, other.count_);
    std::swap(loads_, other.loads_);
    std::swap(arrivals_, other.arrivals_);
    std::swap(live_, other.live_);
    std::swap(touched_, other.touched_);
    std::swap(touched_list_, other.touched_list_);
    std::swap(state_, other.state_);
    num_touched_.store(
        other.num_touched_.exchange(
            num_touched_.load(std::memory_order_relaxed),
            std::memory_order_relaxed),
        std::memory_order_relaxed);
    std::swap(num_machines_, other.num_machines_);
    std::swap(num_jobs_, other.num_jobs_);
    std::swap(num_live_, other.num_live_);
  }

  // One slab; the pointers below are views into it. A row that outgrew
  // its segment lives in a heap block of its own (carved() tells which).
  core::numa::Slab slab_;
  std::size_t bytes_ = 0;
  // Job-indexed positions (size n), machine-indexed state (size m).
  JobId* pos_ = nullptr;
  JobId** rows_ = nullptr;
  JobId* cap_ = nullptr;
  std::size_t* count_ = nullptr;
  Cost* loads_ = nullptr;
  std::uint64_t* arrivals_ = nullptr;
  std::uint8_t* live_ = nullptr;  // 1 = in the active machine set
  std::uint8_t* touched_ = nullptr;  // 1 = listed in touched_list_
  MachineId* touched_list_ = nullptr;
  std::uint8_t* state_ = nullptr;  // kStale | kInOrder per row
  mutable std::atomic<std::size_t> num_touched_{0};
  std::size_t num_machines_ = 0;
  std::size_t num_jobs_ = 0;
  std::size_t num_live_ = 0;
};

}  // namespace dlb
