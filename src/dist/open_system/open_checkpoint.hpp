#pragma once

// Byte-deterministic open-system checkpoints. An OpenCheckpoint freezes the
// event-driven run of OpenSystemEngine at an event boundary: the virtual
// clock, the waiting-job assignment and frozen load accumulators, the
// in-service job and busy-until horizon per machine, the per-job completion
// times and queue-at-arrival samples accrued so far, both persistent
// generators (placement and sequential repair), and the cumulative repair
// tallies. Everything else the run needs — the arrival times, the shuffled
// arrival order, the service-time draws — is a pure function of the run
// seed and is recomputed on resume. Contract (test_open_system.cpp):
//
//   halt at event k  +  restore  +  run to completion
//     ==  (bitwise)  one uninterrupted run,
//
// for the OpenRunReport JSON, the metrics snapshot, and the post-k trace.
//
// On-disk form: line-oriented text ("dlb-open-checkpoint v1", same family
// as dlb-checkpoint). Doubles travel as IEEE-754 bit patterns.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "dist/checkpoint.hpp"
#include "stats/rng.hpp"

namespace dlb::dist {

/// Sentinel for "machine is serving nothing" in the in_service table.
inline constexpr JobId kNoJob = std::numeric_limits<JobId>::max();

/// The mutable state of an open-system run besides its schedule and its two
/// generators. OpenSystemEngine::run works on one instance; a checkpoint
/// copies it whole and a resume restores it whole.
struct OpenRunState {
  double now = 0.0;  ///< Virtual clock.
  std::uint64_t events = 0;
  std::uint64_t bursts = 0;
  std::size_t submitted = 0;
  std::size_t completed = 0;

  // Cumulative repair tallies over the whole logical run.
  std::uint64_t repair_exchanges = 0;
  std::uint64_t repair_migrations = 0;
  std::uint64_t repair_changed = 0;

  /// Job in service per machine; kNoJob = idle.
  std::vector<JobId> in_service;
  /// Completion horizon per machine (meaningful where in_service != kNoJob).
  std::vector<double> busy_until;
  /// Per-job completion time; -1.0 = not completed yet.
  std::vector<double> completion_time;
  /// Per-job queue length observed at arrival (waiting + in service on the
  /// chosen machine); meaningful for submitted jobs only.
  std::vector<std::uint64_t> queue_seen;
};

/// The frozen schedule holds the *waiting* jobs only: kUnassigned marks
/// jobs not yet arrived, in service, or completed.
struct OpenCheckpoint : FrozenSchedule, OpenRunState {
  /// The run seed; resume verifies it matches, since every recomputed pure
  /// stream (arrivals, shuffle order, service draws) derives from it.
  std::uint64_t seed = 0;
  std::size_t total_arrivals = 0;

  stats::Rng::State place_rng{};
  stats::Rng::State repair_rng{};

  /// Rebuilds the frozen waiting schedule. Throws std::invalid_argument if
  /// the instance shape does not match.
  [[nodiscard]] Schedule make_schedule(const Instance& instance) const;

  void save(std::ostream& out) const;
  [[nodiscard]] static OpenCheckpoint load(std::istream& in);
  void save_file(const std::string& path) const;
  [[nodiscard]] static OpenCheckpoint load_file(const std::string& path);
};

}  // namespace dlb::dist
