#pragma once

// The random-exchange dynamic of Section VII run as many *simultaneous*
// pairwise sessions. Each epoch the coordinator plans a batch of disjoint
// machine pairs (no machine appears twice), the batch executes in parallel
// on a thread pool, and the outcomes are committed sequentially in session
// order. Because
//
//   * all randomness (initiator order, peer draws) is consumed in the
//     sequential plan phase from per-session streams, and
//   * sessions in a batch touch disjoint machine pairs, so their effects
//     commute regardless of execution interleaving, and
//   * every counter, trace event and makespan evaluation happens in the
//     sequential commit phase,
//
// the result — schedule, RunReport, obs counters and trace bytes — is
// bitwise identical at any thread count, including pool == nullptr.
// docs/parallelism.md spells out the full argument.
//
// The lifecycle (churn, stops, checkpoints, flight samples) is the epoch
// driver's (dist/epoch_driver.hpp), shared with ExchangeEngine; this
// engine is its parallel planner, and one step is one epoch's batch.
// Observability: counters parexchange.sessions / .conflicts / .retries /
// .epochs, gauge parexchange.cmax, tracer spans "session" on the virtual
// axis of one microsecond per session.

#include <cstdint>
#include <vector>

#include "core/schedule.hpp"
#include "dist/exchange_engine.hpp"
#include "dist/peer_selector.hpp"
#include "pairwise/pair_kernel.hpp"
#include "parallel/thread_pool.hpp"

namespace dlb::dist {

/// The shared options plus a pool.
struct ParallelEngineOptions : EngineOptions {
  /// Pool to execute each epoch's batch on; null runs the batch inline on
  /// the calling thread (the result is identical either way).
  parallel::ThreadPool* pool = nullptr;
};

/// Shared fields live on the RunReport and EngineResult bases.
/// `exchanges` counts executed sessions; best/threshold bookkeeping and the
/// trace work at epoch granularity (Cmax is only evaluated at epoch
/// boundaries, so mid-epoch values do not exist in the parallel model).
struct ParallelRunResult : EngineResult {
  /// Planned initiators abandoned because every peer draw was claimed.
  std::uint64_t conflicts = 0;
  /// Peer redraws caused by claimed peers (the redraws of abandoned
  /// initiators plus those that eventually succeeded).
  std::uint64_t peer_retries = 0;
};

class ParallelExchangeEngine {
 public:
  /// Kernel and selector must outlive the engine. The kernel must be safe
  /// to call concurrently on disjoint machine pairs (all in-tree kernels
  /// are: they only touch the two machines they are given).
  ParallelExchangeEngine(const pairwise::PairKernel& kernel,
                         const PeerSelector& selector)
      : kernel_(&kernel), selector_(&selector) {}

  /// Runs the epoch loop on `schedule` in place. Takes a seed rather than
  /// an Rng: every session derives its own stream from it, so the draw
  /// sequence cannot depend on scheduling.
  ParallelRunResult run(Schedule& schedule,
                        const ParallelEngineOptions& options,
                        std::uint64_t seed) const;

 private:
  const pairwise::PairKernel* kernel_;
  const PeerSelector* selector_;
};

}  // namespace dlb::dist
