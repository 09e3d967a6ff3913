#pragma once

// OpenSystemEngine: the open-system service workload (ROADMAP item 3).
// Jobs arrive online on an ArrivalPlan's virtual clock, a PlacementPolicy
// decides their machine at submission, each machine serves its FIFO queue
// (service time = the instance cost, optionally realized through the cost
// model so estimates mispredict), and DLB2C-style repair bursts rebalance
// the *waiting* jobs on a budget — the paper's Section IV premise, run in
// the regime "Decentralized List Scheduling" (PAPERS.md) analyzes.
//
// Determinism contract (docs/open-system.md): the run interleaves three
// event streams — completions, arrivals, repair bursts (tie priority in
// that order) — and every random draw comes from a purpose-keyed substream
// of the single run seed:
//
//   placement draws        persistent generator, checkpointed
//   sequential repair      persistent generator, checkpointed
//   parallel repair        one derived seed per burst (pure in burst index)
//   service realization    one uniform per job id (pure)
//   arrival order + times  pure in the seed (id shuffle, ArrivalPlan)
//
// so the result — report JSON, metrics, trace — is bitwise identical at
// any repair thread count and across any halt/resume split.
//
// A closed run (no arrivals) is not this engine's job: run ExchangeEngine
// or ParallelExchangeEngine on the pre-loaded schedule instead. A null or
// trivial ArrivalPlan is rejected.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "core/schedule.hpp"
#include "dist/exchange_engine.hpp"
#include "dist/open_system/arrival.hpp"
#include "dist/open_system/open_checkpoint.hpp"
#include "dist/open_system/placement.hpp"
#include "dist/parallel_exchange_engine.hpp"
#include "dist/peer_selector.hpp"
#include "dist/run_report.hpp"
#include "obs/obs.hpp"
#include "pairwise/pair_kernel.hpp"
#include "parallel/thread_pool.hpp"

namespace dlb::dist {

struct OpenSystemOptions {
  /// The arrival process (must outlive the run); must be non-trivial.
  const ArrivalPlan* arrivals = nullptr;
  /// Jobs to admit from the instance's pool; 0 = all of them. Must not
  /// exceed the instance's job count.
  std::size_t num_arrivals = 0;
  /// Submission-time placement (must outlive the run); null = random.
  const PlacementPolicy* placement = nullptr;

  /// Background repair: one burst every this many virtual time units;
  /// 0 (or repair_budget 0, or a single machine) disables repair.
  double repair_every = 0.0;
  /// Pairwise exchange budget per repair burst.
  std::size_t repair_budget = 0;
  /// Run repair bursts on the parallel epoch engine instead of the
  /// sequential one (bitwise identical at any thread count either way).
  bool parallel_repair = false;
  /// Pool for parallel bursts; null executes batches inline.
  parallel::ThreadPool* pool = nullptr;

  /// Draw realized service times through the instance's cost model (one
  /// pure uniform per job); false bills the predicted cost exactly.
  bool realize_service = false;

  /// Fill RunReport::trace: Cmax of the waiting schedule after each repair
  /// burst.
  bool record_trace = false;
  /// Optional observability sinks (must outlive the run). Counters
  /// open.arrivals / .completions / .repair_bursts / .repair_exchanges /
  /// .repair_migrations / .events, histograms open.response_time /
  /// open.queue_len, tracer REPAIR instants on the virtual clock, one
  /// flight sample per burst.
  const obs::Context* obs = nullptr;

  // ----- checkpoint / halt / resume -----
  /// When nonzero: snapshot into *checkpoint_out every this-many events.
  std::uint64_t checkpoint_every_events = 0;
  OpenCheckpoint* checkpoint_out = nullptr;
  /// When set: stop after this event completes (snapshotting into
  /// checkpoint_out if provided) with OpenRunReport::halted true.
  std::optional<std::uint64_t> halt_after_events;
  /// When set: continue the checkpointed run. `schedule` must come from
  /// OpenCheckpoint::make_schedule and run() must get the same seed. The
  /// finished run is bitwise identical to one that never stopped. run()
  /// refuses a checkpoint whose per-machine or per-job vectors do not
  /// match the instance, whose submitted count exceeds the arrivals or
  /// lies below the completed plus in-service jobs, or whose in-service
  /// horizon lies before `now`.
  const OpenCheckpoint* resume = nullptr;
};

/// Shared fields live on the RunReport base (exchanges / migrations are the
/// repair totals, converged means fully drained). The open-system story —
/// response time and queue length, not Cmax — lives in the appended
/// fields.
struct OpenRunReport : RunReport {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_in_service = 0;  ///< Nonzero only for halted runs.
  std::uint64_t jobs_waiting = 0;     ///< Nonzero only for halted runs.
  std::uint64_t repair_bursts = 0;
  std::uint64_t events = 0;
  double end_time = 0.0;  ///< Virtual clock when the run stopped.

  // Response time = completion - arrival, over completed jobs; the sum is
  // accumulated in job-id order (resume byte-identity). Percentiles are
  // obs::Histogram bucket bounds (log2 resolution; docs/open-system.md).
  double response_mean = 0.0;
  double response_p50 = 0.0;
  double response_p95 = 0.0;
  double response_p99 = 0.0;
  // Queue length observed at each arrival (waiting + in service on the
  // chosen machine), over submitted jobs.
  double queue_p50 = 0.0;
  double queue_p95 = 0.0;
  double queue_p99 = 0.0;
  std::uint64_t queue_max = 0;

  /// Stopped at halt_after_events, not by draining.
  bool halted = false;

  /// Base schema with the open_* keys appended (stable order; extend only
  /// by appending).
  [[nodiscard]] stats::Json to_json() const;
  /// Base block plus the open-system lines.
  void print(std::ostream& out) const;
};

/// A job whose service the run cannot schedule: its service time is
/// negative or NaN, or its end lies past the repair clock's horizon. The
/// time comes from the instance (or its cost model), not from an option,
/// so the command-line tools report it as a refused input file, as they do
/// a CheckpointMismatch. An std::invalid_argument, so code that checks
/// arguments still catches it.
class ServiceTimeRefused : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class OpenSystemEngine {
 public:
  /// Kernel and selector drive the repair bursts; both must outlive the
  /// engine.
  OpenSystemEngine(const pairwise::PairKernel& kernel,
                   const PeerSelector& selector)
      : kernel_(&kernel), selector_(&selector) {}

  /// Runs on `schedule` in place. Requires an empty schedule (every job
  /// unassigned) unless resuming.
  OpenRunReport run(Schedule& schedule, const OpenSystemOptions& options,
                    std::uint64_t seed) const;

 private:
  const pairwise::PairKernel* kernel_;
  const PeerSelector* selector_;
};

}  // namespace dlb::dist
