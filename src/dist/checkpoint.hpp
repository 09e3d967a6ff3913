#pragma once

// Byte-deterministic engine checkpoints. A Checkpoint freezes everything a
// run needs to continue exactly where it stopped: the assignment, the live
// mask, the RNG state (sequential engine) or stream counters (parallel
// engine), the persistent round/order permutation (Fisher-Yates output
// depends on its input permutation, so it cannot be rebuilt), the partial
// result tallies, the churn cursor/queue, and the obs counter deltas the
// run has accrued. The contract, covered by test_checkpoint.cpp:
//
//   checkpoint at epoch k  +  restore  +  run to completion
//     ==  (bitwise)  one uninterrupted run,
//
// for the report JSON, the final schedule, the engine + churn counters,
// and the post-k trace events — at any thread count. Checkpoints are only
// taken at epoch boundaries (the engines' sequential phase), which is why
// no thread or in-flight-session state appears here.
//
// The on-disk form is a line-oriented text file ("dlb-checkpoint v1",
// same family as dlb-instance / dlb-churn-plan). Doubles are stored as
// their IEEE-754 bit patterns in decimal, not as formatted decimals —
// round-tripping through text must not perturb a single bit.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "dist/churn.hpp"
#include "stats/rng.hpp"

namespace dlb::codec {
class TextReader;
}  // namespace dlb::codec

namespace dlb::dist {

/// A checkpoint that does not fit the run it is given to: its shape, load
/// bits, job places or engine state disagree with the instance, the seed
/// or the engine. An std::invalid_argument, so code that checks arguments
/// still catches it; the command-line tools report it as a refused input
/// file rather than a usage error.
class CheckpointMismatch : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The frozen Schedule inside every checkpoint (closed engines, the open
/// system and dlbd's replica): the machine of each job and the exact
/// per-machine load accumulators.
struct FrozenSchedule {
  std::size_t num_machines = 0;
  std::size_t num_jobs = 0;
  /// machine_of per job; kUnassigned marks a job on no machine.
  std::vector<MachineId> assignment;
  /// Frozen per-machine load accumulators. The incremental sums are
  /// order-dependent in the last ulp, so the thawed schedule inherits the
  /// exact bits instead of recomputing from the assignment.
  std::vector<Cost> loads;

  /// Copies the shape, assignment and load bits of `schedule`.
  void freeze(const Schedule& schedule);
  /// A new schedule with the frozen assignment and loads. Throws
  /// CheckpointMismatch, naming `type`, if the instance shape differs,
  /// or naming `loads[i]` if a stored load is further from its machine's
  /// recomputed sum than rounding explains (see checkpoint.cpp).
  [[nodiscard]] Schedule make_schedule(const Instance& instance,
                                       const char* type) const;
  /// The same state reached in place: every job is moved (or unassigned)
  /// onto its frozen machine in ascending job order, then the load bits
  /// are restored. Throws like make_schedule.
  void thaw_into(Schedule& schedule) const;

  /// The "assignment" and "loads" rows of the text form.
  void write_rows(std::ostream& out) const;
  /// Reads them back, bounded by num_machines and num_jobs; a non-finite
  /// load is refused.
  void read_rows(codec::TextReader& reader);
};

struct Checkpoint : FrozenSchedule {
  enum class Engine : std::uint8_t { kSequential, kParallel };

  Engine engine = Engine::kSequential;
  /// The parallel engine's stream seed (the sequential engine carries its
  /// generator in rng_state instead and leaves this 0).
  std::uint64_t seed = 0;

  /// Sequential engine generator state at the boundary.
  stats::Rng::State rng_state{};
  /// The persistent initiator permutation (sequential round / parallel
  /// order) exactly as the next epoch will shuffle it.
  std::vector<MachineId> order;
  std::uint64_t epochs = 0;
  /// Parallel engine: next per-session stream index.
  std::uint64_t next_session = 0;

  // Partial result tallies (cumulative over the whole logical run).
  Cost initial_makespan = 0.0;
  Cost best_makespan = 0.0;
  std::uint64_t exchanges = 0;
  std::uint64_t changed_exchanges = 0;
  std::uint64_t migrations = 0;
  std::uint64_t conflicts = 0;     ///< Parallel engine.
  std::uint64_t peer_retries = 0;  ///< Parallel engine.

  /// Live mask; the frozen assignment marks queued orphans kUnassigned.
  std::vector<std::uint8_t> live;

  // Churn runtime state.
  std::size_t churn_cursor = 0;
  std::vector<JobId> churn_queue;
  ChurnCounters churn;

  /// Engine-owned obs counter deltas accrued during the checkpointed run
  /// (sorted by name, zero entries omitted). Restoring into a fresh
  /// Metrics pre-adds these, so the resumed run's counter totals equal the
  /// uninterrupted run's.
  std::vector<std::pair<std::string, std::uint64_t>> obs_counters;

  /// Rebuilds the frozen schedule: assignment applied, live mask restored.
  /// Throws std::invalid_argument like FrozenSchedule::make_schedule, and
  /// for a job that is on no machine and not in churn_queue.
  [[nodiscard]] Schedule make_schedule(const Instance& instance) const;

  void save(std::ostream& out) const;
  /// Throws std::runtime_error naming the field on a malformed file: a
  /// count past its bound, an id out of range, a non-finite load, or an
  /// order that is not exactly the live machines (at least one) in some
  /// order.
  [[nodiscard]] static Checkpoint load(std::istream& in);
  void save_file(const std::string& path) const;
  [[nodiscard]] static Checkpoint load_file(const std::string& path);
};

/// Builds Checkpoint::obs_counters: the engine's own name/value deltas
/// plus the churn counters, sorted by name with zero entries omitted
/// (matching lazy counter registration, so a restore into fresh Metrics
/// reproduces the uninterrupted run's registry exactly).
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
checkpoint_obs_counters(
    std::initializer_list<std::pair<const char*, std::uint64_t>> engine,
    const ChurnCounters& churn);

}  // namespace dlb::dist
