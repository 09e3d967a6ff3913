#pragma once

// LoadTable: the per-machine half of a Schedule — machine loads and
// per-machine job membership — stored as one contiguous slab of flat
// arrays instead of one heap vector per machine. Each job owns one slot in
// the shared next/prev arrays (an intrusive doubly-linked list threaded
// through flat storage), so:
//   * moving a job between machines is O(1) with zero allocation — the old
//     vector-of-vectors layout paid an O(k) linear find plus occasional
//     push_back reallocation on every move;
//   * the whole table is nine flat arrays (SoA) carved out of a single
//     page-aligned slab, each section padded to a cache line, so a
//     pairwise session touches two small slabs of machine state plus the
//     shared link pool rather than pointer-chasing per-machine heap
//     blocks (and at million-machine scale the table is one allocation,
//     not nine);
//   * two sessions on disjoint machine pairs touch disjoint entries of
//     every array, which is what lets ParallelExchangeEngine run sessions
//     concurrently without synchronising on the table itself;
//   * every load change records its machine in a touched set (a flag per
//     machine plus a list), which Schedule::makespan() drains to keep
//     Cmax incrementally. The set lives in the slab, so tracking it adds
//     no allocation to a Schedule.
//
// Iteration order over a machine's jobs is the insertion order of the
// current residents (most recently attached first). Nothing in the library
// depends on that order. The readers of row order, audited:
//   * the pair kernels gather both rows with pairwise::for_each_pooled_job
//     and sort the pool into a total order (by id, or by ratio rank or
//     ratio with id tie-breaks), so the walk order never shows;
//   * churn, local search and TransportRunner::sorted_jobs read rows
//     through sorted_jobs_on (core/schedule.hpp), which sorts by id;
//   * the open engine's start_next takes the FIFO minimum over
//     (arrival time, job id), a total order;
//   * Schedule::check_consistency compares its per-row sums within a
//     tolerance and counts membership, so order cannot flip its answer.
// Loads are accumulators of the attach/detach sequence, not of row order.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "core/numa.hpp"
#include "core/types.hpp"

namespace dlb {

class LoadTable {
 public:
  /// Sentinel link meaning "end of list" / "not on any machine".
  static constexpr JobId kNil = kUnassigned;

  LoadTable() = default;

  LoadTable(std::size_t num_machines, std::size_t num_jobs) {
    init(num_machines, num_jobs);
    for (std::size_t j = 0; j < num_jobs; ++j) next_[j] = kNil;
    for (std::size_t j = 0; j < num_jobs; ++j) prev_[j] = kNil;
    for (std::size_t i = 0; i < num_machines; ++i) head_[i] = kNil;
    // count/loads/arrivals stay at the first-touch zero fill.
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

  /// Lightweight forward range over the jobs currently on one machine.
  /// Invalidated by any attach/detach on that machine.
  class JobList {
   public:
    class iterator {
     public:
      using value_type = JobId;
      iterator(const JobId* next, JobId at) noexcept : next_(next), at_(at) {}
      JobId operator*() const noexcept { return at_; }
      iterator& operator++() noexcept {
        at_ = next_[at_];
        return *this;
      }
      bool operator==(const iterator& other) const noexcept {
        return at_ == other.at_;
      }

     private:
      const JobId* next_;
      JobId at_;
    };

    JobList(const JobId* next, JobId head, std::size_t size) noexcept
        : next_(next), head_(head), size_(size) {}

    [[nodiscard]] iterator begin() const noexcept { return {next_, head_}; }
    [[nodiscard]] iterator end() const noexcept { return {next_, kNil}; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

   private:
    const JobId* next_;
    JobId head_;
    std::size_t size_;
  };

  [[nodiscard]] JobList jobs(MachineId i) const noexcept {
    return {next_, head_[i], count_[i]};
  }

  /// Links job j onto machine i and adds `cost` to its load. j must not be
  /// attached anywhere. `migrated` marks reassignments (counted in
  /// arrivals) as opposed to first placements.
  void attach(JobId j, MachineId i, Cost cost, bool migrated) noexcept {
    next_[j] = head_[i];
    prev_[j] = kNil;
    if (head_[i] != kNil) prev_[head_[i]] = j;
    head_[i] = j;
    ++count_[i];
    loads_[i] += cost;
    if (migrated) ++arrivals_[i];
    touch(i);
  }

  /// Requests job j's next/prev links into the cache ahead of an attach
  /// or detach. Issues prefetches only; reads and writes no table state.
  /// Always inlined: GCC deletes a call to a function whose body is only
  /// prefetches, as a call without effects.
  [[gnu::always_inline]] void prefetch(JobId j) const noexcept {
    __builtin_prefetch(next_ + j, 1);
    __builtin_prefetch(prev_ + j, 1);
  }

  /// Unlinks job j from machine i and subtracts `cost` from its load. O(1).
  void detach(JobId j, MachineId i, Cost cost) noexcept {
    if (prev_[j] != kNil) {
      next_[prev_[j]] = next_[j];
    } else {
      head_[i] = next_[j];
    }
    if (next_[j] != kNil) prev_[next_[j]] = prev_[j];
    next_[j] = kNil;
    prev_[j] = kNil;
    --count_[i];
    loads_[i] -= cost;
    touch(i);
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

  /// Allocates the slab (core/numa.hpp), zero-fills it with one memset,
  /// and binds the section pointers. Sections are cache-line padded:
  /// job-indexed link pool first (the hottest, largest arrays), then
  /// machine-indexed state.
  void init(std::size_t num_machines, std::size_t num_jobs) {
    namespace numa = core::numa;
    const std::size_t off_next = 0;
    const std::size_t off_prev = numa::align_up(
        off_next + num_jobs * sizeof(JobId), numa::kCacheLine);
    const std::size_t off_head = numa::align_up(
        off_prev + num_jobs * sizeof(JobId), numa::kCacheLine);
    const std::size_t off_count = numa::align_up(
        off_head + num_machines * sizeof(JobId), numa::kCacheLine);
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
    bytes_ = numa::align_up(
        off_touched_list + num_machines * sizeof(MachineId),
        numa::kCacheLine);
    slab_ = numa::alloc_slab(bytes_);
    if (slab_) std::memset(slab_.get(), 0, bytes_);
    std::byte* base = slab_.get();
    next_ = reinterpret_cast<JobId*>(base + off_next);
    prev_ = reinterpret_cast<JobId*>(base + off_prev);
    head_ = reinterpret_cast<JobId*>(base + off_head);
    count_ = reinterpret_cast<std::size_t*>(base + off_count);
    loads_ = reinterpret_cast<Cost*>(base + off_loads);
    arrivals_ = reinterpret_cast<std::uint64_t*>(base + off_arrivals);
    live_ = reinterpret_cast<std::uint8_t*>(base + off_live);
    touched_ = reinterpret_cast<std::uint8_t*>(base + off_touched);
    touched_list_ = reinterpret_cast<MachineId*>(base + off_touched_list);
    num_touched_.store(0, std::memory_order_relaxed);
    num_machines_ = num_machines;
    num_jobs_ = num_jobs;
  }

  void copy_from(const LoadTable& other) {
    if (other.slab_ == nullptr) {
      slab_.reset();
      bytes_ = 0;
      next_ = prev_ = head_ = nullptr;
      count_ = nullptr;
      loads_ = nullptr;
      arrivals_ = nullptr;
      live_ = touched_ = nullptr;
      touched_list_ = nullptr;
      num_touched_.store(0, std::memory_order_relaxed);
      num_machines_ = num_jobs_ = num_live_ = 0;
      return;
    }
    init(other.num_machines_, other.num_jobs_);
    std::memcpy(slab_.get(), other.slab_.get(), bytes_);
    num_live_ = other.num_live_;
    num_touched_.store(other.num_touched_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  }

  void swap(LoadTable& other) noexcept {
    std::swap(slab_, other.slab_);
    std::swap(bytes_, other.bytes_);
    std::swap(next_, other.next_);
    std::swap(prev_, other.prev_);
    std::swap(head_, other.head_);
    std::swap(count_, other.count_);
    std::swap(loads_, other.loads_);
    std::swap(arrivals_, other.arrivals_);
    std::swap(live_, other.live_);
    std::swap(touched_, other.touched_);
    std::swap(touched_list_, other.touched_list_);
    num_touched_.store(
        other.num_touched_.exchange(
            num_touched_.load(std::memory_order_relaxed),
            std::memory_order_relaxed),
        std::memory_order_relaxed);
    std::swap(num_machines_, other.num_machines_);
    std::swap(num_jobs_, other.num_jobs_);
    std::swap(num_live_, other.num_live_);
  }

  // One slab; the pointers below are views into it.
  core::numa::Slab slab_;
  std::size_t bytes_ = 0;
  // Job-indexed link pool (size n), machine-indexed state (size m).
  JobId* next_ = nullptr;
  JobId* prev_ = nullptr;
  JobId* head_ = nullptr;
  std::size_t* count_ = nullptr;
  Cost* loads_ = nullptr;
  std::uint64_t* arrivals_ = nullptr;
  std::uint8_t* live_ = nullptr;  // 1 = in the active machine set
  std::uint8_t* touched_ = nullptr;  // 1 = listed in touched_list_
  MachineId* touched_list_ = nullptr;
  mutable std::atomic<std::size_t> num_touched_{0};
  std::size_t num_machines_ = 0;
  std::size_t num_jobs_ = 0;
  std::size_t num_live_ = 0;
};

}  // namespace dlb
