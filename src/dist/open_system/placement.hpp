#pragma once

// Submission-time placement for the open-system workload: where does a job
// that just arrived go, before any background repair has seen it? Policies
// are pluggable through a NameRegistry (PR 4 pattern), so the CLI, bench
// sweeps, and dlb_check resolve them by name:
//
//   random         uniform over the machines ([2]'s baseline)
//   two_choices:d  power of d choices — probe d uniform machines, keep the
//                  one with the least work + cost ([2]-[4]; draw-for-draw
//                  compatible with centralized::two_choices_schedule)
//   ect            deterministic earliest-completion-time argmin
//
// Policies read the run through one concrete PlacementView: every machine
// is a target, and a machine's work is its waiting load plus the remaining
// service of the job it is serving. Over a batch Schedule with nothing in
// service the work is the load.

#include <cstddef>
#include <memory>
#include <string>

#include "core/name_registry.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"
#include "dist/open_system/open_checkpoint.hpp"
#include "stats/rng.hpp"

namespace dlb::dist {

/// What a placement policy may observe at submission time. Holds pointers:
/// the schedule and the run state must outlive the view, and the view reads
/// them as they change.
class PlacementView {
 public:
  /// `state` says which job each machine serves until when, and
  /// `state.now` is the submission time. A batch schedule with nothing in
  /// service passes an idle state: every in_service entry kNoJob.
  PlacementView(const Schedule& schedule, const OpenRunState& state) noexcept
      : schedule_(&schedule), state_(&state) {}

  /// Number of machines, all of them targets (> 0).
  [[nodiscard]] std::size_t num_machines() const noexcept {
    return schedule_->num_machines();
  }
  /// Work already committed to machine i (queued + in service).
  [[nodiscard]] Cost work(MachineId i) const noexcept {
    Cost work = schedule_->load(i);
    if (state_->in_service[i] != kNoJob) {
      work += state_->busy_until[i] - state_->now;
    }
    return work;
  }
  /// Estimated cost of job j on machine i.
  [[nodiscard]] Cost cost(MachineId i, JobId j) const noexcept {
    return schedule_->instance().cost(i, j);
  }

 private:
  const Schedule* schedule_;
  const OpenRunState* state_;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Picks the machine for job `job`. Randomized policies draw from `rng`
  /// only (never from global state), so placement is replayable.
  [[nodiscard]] virtual MachineId place(const PlacementView& view, JobId job,
                                        stats::Rng& rng) const = 0;
};

/// Uniformly random machine.
class RandomPlacement final : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "random"; }
  [[nodiscard]] MachineId place(const PlacementView& view, JobId job,
                                stats::Rng& rng) const override;
};

/// Power of d choices. With nothing in service, the probe sequence and
/// tie-breaks match centralized::two_choices_schedule draw-for-draw.
class TwoChoicesPlacement final : public PlacementPolicy {
 public:
  explicit TwoChoicesPlacement(std::size_t d);
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t d() const noexcept { return d_; }
  [[nodiscard]] MachineId place(const PlacementView& view, JobId job,
                                stats::Rng& rng) const override;

 private:
  std::size_t d_;
};

/// Deterministic earliest completion time: argmin over machines of
/// work + cost, lowest id on ties. Draws nothing.
class EctPlacement final : public PlacementPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "ect"; }
  [[nodiscard]] MachineId place(const PlacementView& view, JobId job,
                                stats::Rng& rng) const override;
};

/// The process-wide placement policy registry: random, two_choices (d=2),
/// ect. Use make_placement() to honor "two_choices:d" parameter specs.
[[nodiscard]] NameRegistry<PlacementPolicy>& placement_registry();

/// Resolves a policy spec: a registry name, or "two_choices:d" with an
/// explicit probe count d >= 1. Throws std::invalid_argument on unknown
/// names (listing the valid set) or a malformed parameter.
[[nodiscard]] std::unique_ptr<PlacementPolicy> make_placement(
    const std::string& spec);

}  // namespace dlb::dist
