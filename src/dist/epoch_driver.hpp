#pragma once

// The epoch lifecycle shared by the two closed exchange engines: option and
// checkpoint validation, kernel->prepare, resume-or-init, churn epochs and the
// idle-epoch fast-forward, the threshold and stability stops, flight samples,
// checkpoints and halts, and the final churn/risk fill. A *step* is one
// exchange in ExchangeEngine and one disjoint batch in ParallelExchangeEngine;
// the best-Cmax update and both early stops act once per step. The driver is a
// template over the engine's planner, so each step is a direct call, not a
// virtual one. A Planner is built as Planner(run, result, args...) and provides
// kName, kChecksSeed (matches(ck) compares seeds), kEngine, kStepIsEpoch (the
// stability step index is the epoch number, not the exchange count),
// kCountsFinalIdleEpoch, kFlightCmaxFromLoads (else makespan()), matches(ck),
// reset(order), restore(ck), save(ck), plan() (false when no pair can run),
// step() (Cmax after the step, or nullopt once the epoch's plan is used up)
// and idle().

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>

#include "core/schedule.hpp"
#include "dist/checkpoint.hpp"
#include "dist/churn.hpp"
#include "dist/exchange_engine.hpp"
#include "obs/obs.hpp"
#include "pairwise/pair_kernel.hpp"

namespace dlb::dist {

/// The run state the driver shares with its planner.
struct EpochRun {
  EpochRun(Schedule& run_schedule, const EngineOptions& run_options,
           const pairwise::PairKernel& run_kernel, EngineResult& run_result);

  /// Validates the options and the resume checkpoint, prepares the kernel
  /// (on both paths, so a resume rebuilds the same surrogate), then
  /// restores the checkpoint or starts fresh. True when the threshold
  /// already holds at the start, which ends the run.
  bool begin(std::string_view engine, bool checks_seed, bool matches);
  /// Job moves within the logical run (cumulative across resume).
  [[nodiscard]] std::uint64_t migrations() const {
    return schedule.migrations() - migrations_before + resumed_migrations;
  }
  /// Best-Cmax update and the two early stops; true when the run stops.
  bool stop_after_step(Cost cmax, std::uint64_t step);
  /// The begin/end span of the exchange just counted, on the virtual axis
  /// of one microsecond per exchange; `last` closes the end event's args.
  void trace_exchange(const char* name, MachineId initiator, MachineId peer,
                      bool changed, std::uint64_t moved, obs::TraceArg last);
  /// One convergence sample per epoch.
  void record_flight(bool cmax_from_loads);
  /// The shared checkpoint fields, the save counter and trace instant.
  void fill_checkpoint(Checkpoint& ck);
  /// Fills the final Cmax, churn and risk fields.
  void finish();

  Schedule& schedule;
  const EngineOptions& options;
  const pairwise::PairKernel& kernel;
  EngineResult& result;
  ChurnRuntime churn;
  obs::Metrics* metrics;
  obs::Tracer* tracer;
  obs::FlightRecorder* flight;
  std::uint64_t migrations_before;
  std::uint64_t resumed_migrations;
};

/// Runs the epoch loop on `schedule` in place, filling `result`.
template <typename Planner, typename... Args>
void run_epochs(typename Planner::Result& result, Schedule& schedule,
                const EngineOptions& options,
                const pairwise::PairKernel& kernel, Args&&... args) {
  EpochRun run(schedule, options, kernel, result);
  Planner planner(run, result, std::forward<Args>(args)...);
  const Checkpoint* resume = options.resume;
  if (run.begin(Planner::kName, Planner::kChecksSeed,
                resume == nullptr || (resume->engine == Planner::kEngine &&
                                      planner.matches(*resume)))) {
    return;
  }
  if (resume != nullptr) {
    planner.restore(*resume);
  } else {
    planner.reset(run.churn.live_machines());
  }

  bool stop = false;
  // No machines at all: nothing can ever run.
  while (!stop && result.exchanges < options.max_exchanges &&
         schedule.num_machines() != 0) {
    const std::uint64_t epoch = ++result.epochs;
    if (run.churn.active() &&
        run.churn.begin_epoch(epoch, schedule, options.obs,
                              static_cast<double>(result.exchanges))) {
      planner.reset(run.churn.live_machines());
    }
    if (!planner.plan()) {
      // Fewer than two live machines: the epoch still happened on the
      // churn timeline, it just held no exchange. Once the orphan queue is
      // drained, fast-forward to the next event.
      if (!run.churn.active() || run.churn.exhausted()) {
        if constexpr (!Planner::kCountsFinalIdleEpoch) --result.epochs;
        break;
      }
      planner.idle();
      const auto next = run.churn.next_event_epoch();
      if (run.churn.pending().empty() && next.has_value() &&
          *next > epoch + 1) {
        result.epochs = *next - 1;
      }
      continue;
    }
    while (!stop && result.exchanges < options.max_exchanges) {
      const std::optional<Cost> cmax = planner.step();
      if (!cmax.has_value()) break;
      stop = run.stop_after_step(
          *cmax, Planner::kStepIsEpoch ? epoch : result.exchanges);
    }
    run.record_flight(Planner::kFlightCmaxFromLoads);
    if (stop) break;
    const bool halt_here = options.halt_after_epoch == epoch;
    if (options.checkpoint_out != nullptr &&
        (halt_here || (options.checkpoint_every != 0 &&
                       epoch % options.checkpoint_every == 0))) {
      run.fill_checkpoint(*options.checkpoint_out);
      options.checkpoint_out->engine = Planner::kEngine;
      planner.save(*options.checkpoint_out);
    }
    if (halt_here) {
      result.halted = true;
      break;
    }
  }
  run.finish();
}

}  // namespace dlb::dist
