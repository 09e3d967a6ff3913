#pragma once

// PairKernel: the primitive a pair of machines executes during one exchange
// of any a-priori decentralized balancer (Section IV). A kernel pools the
// two machines' jobs and redistributes them deterministically; determinism
// makes exchanges idempotent per pair, which is what lets us define and
// detect stable states (Section VII).

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/schedule.hpp"
#include "core/types.hpp"

namespace dlb::pairwise {

/// Reusable per-thread scratch for the kernel hot path: the pooled-job
/// buffer (filled by pooled_jobs_into), the split outputs, the flat key
/// arrays the comparator ratio sort gathers group-cost columns into
/// (contiguous, so the comparator reads sequential memory instead of
/// striding the cost matrix), the packed (rank key << 32 | job) words of
/// the ratio-rank path, and the two cost columns the Algorithm 5 deal reads
/// cost(a, j) and cost(b, j) of the sorted pool into before it deals (one
/// pass of independent loads, where the deal alone would issue each load
/// only after the previous comparison resolved). Kernels fetch
/// it via pair_scratch(); after a short warm-up the capacities cover the
/// largest pool seen and a balance() call allocates nothing. Determinism
/// is unaffected: every buffer is (re)filled from scratch per call, so
/// results never depend on what a previous session left behind.
struct PairScratch {
  std::vector<JobId> pool;
  std::vector<JobId> to_a;
  std::vector<JobId> to_b;
  std::vector<JobId> tmp;              ///< permutation / bucket buffer
  std::vector<std::uint32_t> order;    ///< pool positions / bucket cursors
  std::vector<std::uint32_t> counts;   ///< per-type bucket bounds
  std::vector<Cost> key_num;           ///< ratio-sort numerator column
  std::vector<Cost> key_den;           ///< ratio-sort denominator column
  std::vector<std::uint64_t> rank_keys;  ///< ratio-rank pool words
  std::vector<std::uint64_t> rank_tmp;   ///< ratio-rank radix/merge buffer
  std::vector<Cost> cost_a;            ///< deal column: cost(a, pool[p])
  std::vector<Cost> cost_b;            ///< deal column: cost(b, pool[p])
};

/// The calling thread's scratch (thread_local — sessions on different
/// pool workers never share one, and the parallel engine's outcomes are
/// pure functions of their inputs, so recycled capacity is invisible).
[[nodiscard]] PairScratch& pair_scratch() noexcept;

class PairKernel {
 public:
  virtual ~PairKernel() = default;

  /// One-time per-run setup, called by every engine from its
  /// single-threaded setup path before the first balance() (and again
  /// after a checkpoint resume). Risk-aware kernels attach their
  /// risk-adjusted decision instance to the schedule here; the default
  /// detaches any surrogate a previous run left behind, so a plain kernel
  /// always decides on the real instance.
  virtual void prepare(Schedule& schedule) const {
    schedule.set_decision_instance(nullptr);
  }

  /// Rebalances the jobs currently on machines a and b (a != b). Returns
  /// true iff the assignment changed. Must be a deterministic function of
  /// (decision instance, pooled job set, a, b): calling it twice in a row
  /// returns false the second time. Decisions read
  /// schedule.decision_instance(); loads keep billing the real instance.
  virtual bool balance(Schedule& schedule, MachineId a, MachineId b) const = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

/// Calls visit(j) once for every job on machine a or b: a's row, then b's.
/// Every caller sorts what it gathers into a total order, so the visit
/// order never shows. (ratio_sorted_pool walks two in-order rows itself,
/// to merge them; see core/load_table.hpp on row order.)
template <class Visit>
void for_each_pooled_job(const Schedule& schedule, MachineId a, MachineId b,
                         Visit&& visit) {
  for (const JobId j : schedule.jobs_on(a)) visit(j);
  for (const JobId j : schedule.jobs_on(b)) visit(j);
}

/// Collects the pooled jobs of a and b sorted by job id: the deterministic
/// pool of every kernel that needs id order. The two ratio-sorting kernels
/// start from ratio_sorted_pool (greedy_pair_balance.hpp) instead, whose
/// comparator path begins with this id sort.
[[nodiscard]] std::vector<JobId> pooled_jobs(const Schedule& schedule,
                                             MachineId a, MachineId b);

/// pooled_jobs into a caller-owned buffer (the allocation-free kernel
/// path: pass pair_scratch().pool).
void pooled_jobs_into(const Schedule& schedule, MachineId a, MachineId b,
                      std::vector<JobId>& pool);

/// Applies a computed split: every job in `to_a` moves to a, every job in
/// `to_b` moves to b (Schedule::move_split, so the split's migrations are
/// counted in one add). Returns true iff any job actually moved. A kernel
/// whose split partitions the whole pool calls Schedule::write_split
/// instead, which writes both rows whole.
bool apply_split(Schedule& schedule, MachineId a, MachineId b,
                 const std::vector<JobId>& to_a,
                 const std::vector<JobId>& to_b);

/// True when the split (load_a, load_b) equals the machines' current loads
/// (within tolerance). Kernels use this to skip *lazy no-ops*: a
/// redistribution that would leave both completion times unchanged is not
/// an exchange at all — the paper's stable state is "no more pairwise
/// exchange possible", i.e. no exchange that changes any load, and skipping
/// load-neutral reshuffles also avoids pointless data movement.
[[nodiscard]] bool split_is_load_neutral(const Schedule& schedule, MachineId a,
                                         MachineId b, Cost load_a,
                                         Cost load_b) noexcept;

}  // namespace dlb::pairwise
