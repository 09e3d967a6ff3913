#pragma once

// The sequential random-exchange model of Section VII: machines take turns
// initiating one pairwise balancing operation against a randomly selected
// peer. This is the simulator behind Figures 3, 4 and 5 (the paper's
// "number of exchanges per machine" is `exchanges / num_machines` here).
//
// The lifecycle (churn, stops, checkpoints, flight samples) is the epoch
// driver's (dist/epoch_driver.hpp), shared with ParallelExchangeEngine;
// this engine is its sequential planner. Every epoch each live machine
// initiates once, in an order shuffled with the caller's Rng, and each step
// is one exchange whose peer is drawn after the previous exchange, so
// load-aware selectors see the schedule as it is. SequentialRepair runs the
// same steps as short budgeted bursts without the driver, for the open
// system's background repair. Observability: counters
// exchange.count / .changed / .migrations, gauge exchange.cmax, tracer
// spans "exchange" on the virtual axis of one microsecond per exchange.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "dist/checkpoint.hpp"
#include "dist/churn.hpp"
#include "dist/peer_selector.hpp"
#include "dist/run_report.hpp"
#include "obs/obs.hpp"
#include "pairwise/pair_kernel.hpp"
#include "stats/rng.hpp"

namespace dlb::dist {

/// Options of both closed engines (ParallelEngineOptions adds the pool).
struct EngineOptions {
  /// Hard cap on pairwise exchanges (sessions in the parallel engine).
  std::size_t max_exchanges = 100'000;
  /// Fill RunReport::trace: one point per exchange (sequential) or per
  /// epoch (parallel).
  bool record_trace = false;
  /// When set: stop after the first step that leaves Cmax <= threshold
  /// (Figure 5's metric).
  std::optional<Cost> stop_threshold;
  /// When set (must be >= 1): whenever the step index is a multiple of
  /// this, certify stability by a full pair sweep on a copy and stop if
  /// stable (Theorem 7's precondition). The step index is the exchange
  /// count in the sequential engine and the epoch number in the parallel
  /// one.
  std::optional<std::size_t> stability_check_interval;
  /// Optional observability sinks (must outlive the run); each engine's
  /// header lists the names it writes.
  const obs::Context* obs = nullptr;

  // ----- elasticity (src/dist/churn, src/dist/checkpoint) -----

  /// Optional churn plan (must outlive the run). One engine epoch is one
  /// plan epoch. Null or trivial keeps the classic fixed-cluster behaviour
  /// byte-for-byte.
  const ChurnPlan* churn = nullptr;
  /// When nonzero: snapshot the run into *checkpoint_out every this-many
  /// epochs (at the epoch boundary) and emit a CHECKPOINT trace instant.
  std::uint64_t checkpoint_every = 0;
  Checkpoint* checkpoint_out = nullptr;
  /// When set: stop after this epoch completes (snapshotting into
  /// checkpoint_out if provided) with `halted` true.
  std::optional<std::uint64_t> halt_after_epoch;
  /// When set: continue the checkpointed run instead of starting fresh.
  /// `schedule` must come from Checkpoint::make_schedule; ExchangeEngine
  /// overwrites the caller's Rng with the checkpointed generator state and
  /// ParallelExchangeEngine needs the checkpoint's seed. The finished run
  /// is bitwise identical to one that never stopped.
  const Checkpoint* resume = nullptr;
};

/// Result fields both closed engines add to the RunReport base.
struct EngineResult : RunReport {
  std::size_t changed_exchanges = 0;  ///< Exchanges that moved a job.
  /// Epochs completed, cumulative across resume.
  std::uint64_t epochs = 0;
  bool reached_threshold = false;
  /// Exchanges when the threshold step finished; valid iff
  /// reached_threshold.
  std::size_t exchanges_to_threshold = 0;
  /// The run stopped at halt_after_epoch, not a terminal condition;
  /// continue it from the checkpoint.
  bool halted = false;
};

/// Shared fields live on the RunReport and EngineResult bases; the trace
/// has one point per exchange.
struct RunResult : EngineResult {
  /// Exchanges per machine until the threshold (Figure 5's X axis);
  /// 0 for an empty machine set.
  [[nodiscard]] double normalized_threshold_time(
      std::size_t num_machines) const {
    if (num_machines == 0) return 0.0;
    return static_cast<double>(exchanges_to_threshold) /
           static_cast<double>(num_machines);
  }
};

/// One exchange of the sequential model (Algorithms 5 and 6): the initiator,
/// at position `initiator_index` in `live`, draws its peer from `live` with
/// the selector against the schedule as the earlier exchanges left it, and
/// the kernel balances the pair. Both the closed engine's steps and
/// SequentialRepair's bursts run through this.
struct ExchangeOutcome {
  MachineId peer = 0;
  bool changed = false;  ///< The kernel moved a job.
};
ExchangeOutcome exchange_with_peer(const pairwise::PairKernel& kernel,
                                   const PeerSelector& selector,
                                   Schedule& schedule,
                                   std::span<const MachineId> live,
                                   MachineId initiator,
                                   std::size_t initiator_index,
                                   stats::Rng& rng);

/// Budgeted sequential repair over a machine set that never changes: the
/// same draws and kernel calls as ExchangeEngine::run with only
/// max_exchanges set. Each run prepares the kernel, resets the round to
/// ascending machine ids, shuffles it at every epoch and walks it until the
/// budget is spent. It skips what such a run records and nobody reads when
/// it is one burst of a longer run: the checkpoint, churn and stop
/// bookkeeping, the per-step makespan and the risk report. The round and
/// live list are built once, so one runner serves every burst.
class SequentialRepair {
 public:
  /// Kernel and selector must outlive the runner.
  SequentialRepair(const pairwise::PairKernel& kernel,
                   const PeerSelector& selector, std::size_t num_machines);

  struct Tally {
    std::uint64_t exchanges = 0;
    std::uint64_t changed = 0;  ///< Exchanges that moved a job.
  };
  /// Runs `budget` exchanges on `schedule`, which must have the machine
  /// count the runner was built for.
  Tally run(Schedule& schedule, std::size_t budget, stats::Rng& rng);

 private:
  const pairwise::PairKernel* kernel_;
  const PeerSelector* selector_;
  std::vector<MachineId> live_;   ///< 0..m-1: every machine is live.
  std::vector<MachineId> round_;  ///< Initiator order of the current epoch.
};

class ExchangeEngine {
 public:
  /// Kernel and selector must outlive the engine.
  ExchangeEngine(const pairwise::PairKernel& kernel,
                 const PeerSelector& selector)
      : kernel_(&kernel), selector_(&selector) {}

  /// Runs the exchange loop on `schedule` in place.
  RunResult run(Schedule& schedule, const EngineOptions& options,
                stats::Rng& rng) const;

 private:
  const pairwise::PairKernel* kernel_;
  const PeerSelector* selector_;
};

}  // namespace dlb::dist
