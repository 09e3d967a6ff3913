#pragma once

// Instance: the cost model p(i, j) of `R||Cmax` and all its sub-cases.
//
// Machines are partitioned into *groups* of identical machines and each
// machine carries a positive scale factor:
//
//     p(i, j) = group_cost[group(i)][j] * scale(i)
//
// This single representation covers every regime the paper discusses:
//   * identical machines      — one group, unit scales;
//   * heterogeneous related   — one group, per-machine scales;
//   * two clusters (CPU/GPU)  — two groups, unit scales (Sections VI-VII);
//   * fully unrelated         — one group per machine.
//
// Jobs may carry a *type* (Section V): jobs of equal type are guaranteed to
// have identical cost rows, which MJTB exploits.
//
// Storage: the group cost matrix is one flat row-major array (row = group),
// and the per-machine columns are flat arrays too. The arrays are either
// *owned* (the classic constructors, which flatten their input) or
// *borrowed* — raw pointers into an mmap'd `.dlbi` file held by a
// core::InstanceStore. Borrowing is what lets a million-machine instance
// open in O(machines) without copying the O(groups * jobs) cost matrix;
// the view must not outlive the store that maps it (a copy of a borrowed
// instance is another borrowed view of the same mapping).

#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/ratio_rank.hpp"
#include "core/types.hpp"

namespace dlb::core {
class InstanceStore;
}  // namespace dlb::core

namespace dlb {

/// A structural field of an instance failed validation: a borrowed view
/// opened over hostile `.dlbi` bytes. field() names the offending array or
/// header cache ("group_of", "scales", "unit_scales").
class InstanceFieldError : public std::runtime_error {
 public:
  InstanceFieldError(std::string field, const std::string& detail)
      : std::runtime_error("Instance: field '" + field + "': " + detail),
        field_(std::move(field)) {}

  [[nodiscard]] const std::string& field() const noexcept { return field_; }

 private:
  std::string field_;
};

class Instance {
 public:
  /// `group_costs[g]` is the cost row of group g (size = num jobs);
  /// `group_of[i]` maps machine i to its group; `scales` is optional
  /// (empty = all 1.0). Validates shape and positivity.
  Instance(std::vector<std::vector<Cost>> group_costs,
           std::vector<GroupId> group_of,
           std::vector<double> scales = {});

  // Copies rebind the flat-array pointers: an owned instance deep-copies
  // its arrays, a borrowed one stays a view into the same mapping.
  Instance(const Instance& other);
  Instance& operator=(const Instance& other);
  // Moves transfer vector buffers, so the rebound pointers stay valid.
  Instance(Instance&&) noexcept = default;
  Instance& operator=(Instance&&) noexcept = default;

  // ----- named constructors for the paper's machine regimes -----

  /// m identical machines; `job_costs[j]` is the cost of job j anywhere.
  static Instance identical(std::size_t num_machines,
                            std::vector<Cost> job_costs);

  /// Related machines: p(i, j) = base_costs[j] / speeds[i].
  static Instance related(std::vector<double> speeds,
                          std::vector<Cost> base_costs);

  /// Clustered machines: cluster g has `cluster_sizes[g]` identical
  /// machines with cost row `cluster_costs[g]`. Machines are numbered
  /// cluster by cluster.
  static Instance clustered(const std::vector<std::size_t>& cluster_sizes,
                            std::vector<std::vector<Cost>> cluster_costs);

  /// Fully unrelated: `costs[i][j]`, one group per machine.
  static Instance unrelated(std::vector<std::vector<Cost>> costs);

  // ----- shape -----

  [[nodiscard]] std::size_t num_machines() const noexcept {
    return num_machines_;
  }
  [[nodiscard]] std::size_t num_jobs() const noexcept { return num_jobs_; }
  [[nodiscard]] std::size_t num_groups() const noexcept { return num_groups_; }

  /// True when the cost/group/scale arrays are views into storage owned
  /// elsewhere (an mmap'd core::InstanceStore) rather than this object.
  [[nodiscard]] bool is_view() const noexcept { return borrowed_; }

  // ----- costs -----

  /// Processing time of job j on machine i.
  [[nodiscard]] Cost cost(MachineId i, JobId j) const noexcept {
    return costs_[static_cast<std::size_t>(group_of_[i]) * num_jobs_ + j] *
           scales_[i];
  }

  /// Cost row of a group before per-machine scaling (the "cluster cost" the
  /// two-cluster algorithms reason about).
  [[nodiscard]] Cost group_cost(GroupId g, JobId j) const noexcept {
    return costs_[static_cast<std::size_t>(g) * num_jobs_ + j];
  }

  /// Cost row of group g as a contiguous span (size = num jobs): the
  /// SIMD-friendly bulk view the pairwise ratio-sort gathers from.
  [[nodiscard]] std::span<const Cost> group_row(GroupId g) const noexcept {
    return {costs_ + static_cast<std::size_t>(g) * num_jobs_, num_jobs_};
  }

  [[nodiscard]] GroupId group_of(MachineId i) const noexcept {
    return group_of_[i];
  }
  [[nodiscard]] double scale(MachineId i) const noexcept { return scales_[i]; }

  /// Machines belonging to group g, in increasing id order.
  [[nodiscard]] std::span<const MachineId> machines_in_group(GroupId g) const {
    return machines_by_group_[g];
  }

  /// True when every machine has scale 1 (groups are exact clusters).
  [[nodiscard]] bool unit_scales() const noexcept { return unit_scales_; }

  /// Largest cost over all (machine, job) pairs.
  [[nodiscard]] Cost max_cost() const noexcept { return max_cost_; }

  /// Cheapest execution of job j over all machines, computed per group in
  /// O(groups): the minimum over non-empty groups g of
  /// group_cost(g, j) * (smallest scale in g). Bitwise equal to the
  /// machine-by-machine minimum, because for a fixed positive cost IEEE
  /// multiplication is monotone in the scale.
  [[nodiscard]] Cost min_cost_of_job(JobId j) const;

  // ----- job types (Section V) -----

  /// Declares job types. Each `type_of[j]` must be below the job count
  /// and the ids dense in [0, num_types). Enforces the defining property:
  /// jobs of equal type must have equal cost rows (throws
  /// std::invalid_argument otherwise).
  void set_job_types(std::vector<JobTypeId> type_of);

  /// Infers job types by grouping jobs with identical cost columns.
  /// Returns the number of types found.
  std::size_t infer_job_types();

  [[nodiscard]] bool has_job_types() const noexcept {
    return types_ != nullptr;
  }
  [[nodiscard]] std::size_t num_job_types() const noexcept {
    return num_job_types_;
  }
  [[nodiscard]] JobTypeId job_type(JobId j) const noexcept {
    return types_[j];
  }

  /// Total work if every job ran at its cheapest machine (a classic lower
  /// bound ingredient).
  [[nodiscard]] Cost total_min_work() const;

  // ----- stochastic job sizes (core/cost_model.hpp) -----
  // Optional: one size distribution per job, interpreting cost(i, j) as
  // the predicted mean-scale processing time. Jobs of equal type must
  // carry equal distributions (so risk-adjusting costs preserves types).

  /// Attaches per-job size distributions (size must equal num_jobs;
  /// throws std::invalid_argument on shape or type-consistency errors).
  void set_cost_model(cost::CostModel model);

  void clear_cost_model() noexcept { cost_model_.reset(); }

  [[nodiscard]] bool has_cost_model() const noexcept {
    return cost_model_.has_value();
  }
  /// Requires has_cost_model().
  [[nodiscard]] const cost::CostModel& cost_model() const noexcept {
    return *cost_model_;
  }

  // ----- ratio rank (core/ratio_rank.hpp) -----

  /// The two-group ratio rank once built, else null. Each comparator
  /// ratio sort charges its `sort_work` (RatioRank::sort_work); the call
  /// that brings the total to one build's cost builds the rank. Null for
  /// good when the identity guard refuses this instance. Thread-safe.
  [[nodiscard]] const RatioRank* ratio_rank(std::uint64_t sort_work) const {
    return ratio_rank_.acquire(*this, sort_work);
  }

 private:
  friend class core::InstanceStore;

  struct Borrowed {};

  /// View constructor (core::InstanceStore::open): the arrays live in an
  /// mmap'd `.dlbi` section that outlives this object. One O(machines) pass
  /// validates group ids and scales and recomputes `unit_scales` against
  /// the header's value (InstanceFieldError on any mismatch); `max_cost`
  /// comes precomputed from the header, so opening never costs
  /// O(groups * jobs).
  Instance(Borrowed, const Cost* costs, const GroupId* group_of,
           const double* scales, const JobTypeId* types,
           std::size_t num_machines, std::size_t num_groups,
           std::size_t num_jobs, std::size_t num_job_types, Cost max_cost,
           bool unit_scales);

  void compute_caches();
  void build_machines_by_group();
  void rebind();

  // Flat storage: either owned by the vectors below or borrowed from an
  // InstanceStore mapping (owned vectors stay empty, `borrowed_` is set).
  std::vector<Cost> owned_costs_;          // [group * num_jobs + job]
  std::vector<GroupId> owned_group_of_;    // [machine]
  std::vector<double> owned_scales_;       // [machine]
  std::vector<JobTypeId> owned_types_;     // [job], empty if untyped/borrowed
  const Cost* costs_ = nullptr;
  const GroupId* group_of_ = nullptr;
  const double* scales_ = nullptr;
  const JobTypeId* types_ = nullptr;  // null if untyped
  bool borrowed_ = false;

  std::size_t num_machines_ = 0;
  std::size_t num_groups_ = 0;
  std::size_t num_jobs_ = 0;
  std::vector<std::vector<MachineId>> machines_by_group_;
  std::vector<double> group_min_scale_;  // [group], unused if group empty
  std::size_t num_job_types_ = 0;
  Cost max_cost_ = 0.0;
  bool unit_scales_ = true;
  std::optional<cost::CostModel> cost_model_;
  RatioRank ratio_rank_;  // copies start without one
};

}  // namespace dlb
