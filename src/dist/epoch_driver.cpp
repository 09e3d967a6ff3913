#include "dist/epoch_driver.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "dist/convergence.hpp"

namespace dlb::dist {

EpochRun::EpochRun(Schedule& run_schedule, const EngineOptions& run_options,
                   const pairwise::PairKernel& run_kernel,
                   EngineResult& run_result)
    : schedule(run_schedule),
      options(run_options),
      kernel(run_kernel),
      result(run_result),
      churn(options.churn, schedule.num_machines()),
      metrics(obs::metrics_of(options.obs)),
      tracer(obs::tracer_of(options.obs)),
      flight(obs::flight_of(options.obs)),
      migrations_before(schedule.migrations()),
      resumed_migrations(options.resume != nullptr
                             ? options.resume->migrations
                             : 0) {}

bool EpochRun::begin(std::string_view engine, bool checks_seed, bool matches) {
  if (options.stability_check_interval.has_value() &&
      *options.stability_check_interval == 0) {
    throw std::invalid_argument(
        std::string(engine) +
        ": stability_check_interval must be >= 1 when set");
  }
  if (options.churn != nullptr) {
    options.churn->validate(schedule.num_machines());
  }
  const Checkpoint* ck = options.resume;
  if (ck != nullptr &&
      (!matches || ck->num_machines != schedule.num_machines() ||
       ck->num_jobs != schedule.num_jobs())) {
    throw CheckpointMismatch(
        std::string(engine) +
        ": checkpoint does not match this run (engine kind" +
        (checks_seed ? ", seed, or" : " or") + " instance shape differs)");
  }
  kernel.prepare(schedule);
  if (ck != nullptr) {
    result.epochs = ck->epochs;
    result.initial_makespan = ck->initial_makespan;
    result.best_makespan = ck->best_makespan;
    result.exchanges = ck->exchanges;
    result.changed_exchanges = ck->changed_exchanges;
    churn.restore(ck->churn_cursor, ck->churn_queue, ck->churn, schedule);
    if (metrics != nullptr) {
      for (const auto& [name, value] : ck->obs_counters) {
        metrics->counter(name).add(value);
      }
    }
    return false;
  }
  churn.apply_initial(schedule, options.obs);
  result.initial_makespan = schedule.makespan();
  result.best_makespan = result.initial_makespan;
  // Resumed runs passed this gate when they started.
  result.reached_threshold = options.stop_threshold.has_value() &&
                             schedule.makespan() <= *options.stop_threshold;
  if (result.reached_threshold) {
    result.final_makespan = schedule.makespan();
    fill_risk_report(result, schedule);
  }
  return result.reached_threshold;
}

bool EpochRun::stop_after_step(Cost cmax, std::uint64_t step) {
  result.best_makespan = std::min(result.best_makespan, cmax);
  if (options.stop_threshold.has_value() && cmax <= *options.stop_threshold) {
    result.reached_threshold = true;
    result.exchanges_to_threshold = result.exchanges;
    return true;
  }
  if (options.stability_check_interval.has_value() &&
      step % *options.stability_check_interval == 0 &&
      (!churn.active() || churn.exhausted()) &&
      (churn.active() ? is_stable(schedule, kernel, churn.live_machines())
                      : is_stable(schedule, kernel))) {
    result.converged = true;
    return true;
  }
  return false;
}

void EpochRun::trace_exchange(const char* name, MachineId initiator,
                              MachineId peer, bool changed,
                              std::uint64_t moved, obs::TraceArg last) {
  const auto ts = static_cast<double>(result.exchanges - 1);
  tracer->begin(ts, initiator, name, "dist",
                {{"initiator", static_cast<std::int64_t>(initiator)},
                 {"peer", static_cast<std::int64_t>(peer)},
                 {"kernel", std::string(kernel.name())}});
  tracer->end(ts + 1.0, initiator, name,
              {{"changed", changed},
               {"jobs_moved", static_cast<std::int64_t>(moved)},
               std::move(last)});
}

void EpochRun::record_flight(bool cmax_from_loads) {
  // The recorder keeps the newest window, so long runs retain the tail of
  // the descent.
  if (flight == nullptr) return;
  obs::FlightSample sample;
  sample.round = result.epochs;
  obs::sample_loads(sample, schedule, churn.live_machines(),
                    cmax_from_loads
                        ? std::nullopt
                        : std::optional<Cost>(schedule.makespan()));
  sample.exchanges = result.exchanges;
  sample.migrations = migrations();
  flight->record(sample);
}

void EpochRun::fill_checkpoint(Checkpoint& ck) {
  ck = Checkpoint{};
  ck.freeze(schedule);
  ck.epochs = result.epochs;
  ck.initial_makespan = result.initial_makespan;
  ck.best_makespan = result.best_makespan;
  ck.exchanges = result.exchanges;
  ck.changed_exchanges = result.changed_exchanges;
  ck.migrations = migrations();
  const auto live = schedule.live_mask();
  ck.live.assign(live.begin(), live.end());
  ck.churn_cursor = churn.cursor();
  ck.churn_queue = churn.pending();
  ck.churn = churn.counters();
  if (metrics != nullptr) metrics->counter("checkpoint.saves").add();
  if (tracer != nullptr) {
    tracer->instant(static_cast<double>(result.exchanges), 0, "CHECKPOINT",
                    "checkpoint",
                    {{"epoch", static_cast<std::int64_t>(result.epochs)}});
  }
}

void EpochRun::finish() {
  result.final_makespan = schedule.makespan();
  result.migrations = migrations();
  const ChurnCounters& cc = churn.counters();
  result.churn_joins = cc.joins;
  result.churn_drains = cc.drains;
  result.churn_crashes = cc.crashes;
  result.churn_orphaned = cc.orphaned;
  result.churn_redispatched = cc.redispatched;
  result.churn_pending = churn.pending().size();
  fill_risk_report(result, schedule);
}

}  // namespace dlb::dist
