#pragma once

// RunReport: the balancer-run result fields every engine shares. The
// sequential exchange engine, the parallel epoch engine, the asynchronous
// protocol runner, the open system and the work-stealing simulator all
// report the same core story — where the makespan started, where it ended,
// how much pairwise work was done and how many jobs moved — so the CLI and
// the bench telemetry consume this one struct instead of divergent shapes.
// The optional Cmax series (Figures 4 and 5) is one `trace` of TracePoints
// that every engine fills when its options set record_trace. Engine-specific
// extras stay on the derived result types as members.

#include <cstdint>
#include <ostream>
#include <vector>

#include "core/types.hpp"
#include "stats/json.hpp"

namespace dlb {
class Schedule;
}  // namespace dlb

namespace dlb::dist {

/// One step of a run's Cmax series. A step is an exchange (sequential
/// engine), an epoch (parallel engine: Cmax only exists at epoch
/// boundaries), a completed session (async runner) or a repair burst (open
/// system). Fields an engine has no value for stay zero.
struct TracePoint {
  Cost makespan = 0.0;  ///< Cmax after the step.
  /// The step's own count: 1 if the exchange moved a job, else 0
  /// (sequential); sessions executed in the epoch (parallel).
  std::uint64_t count = 0;
  /// Cumulative job moves within the run (sequential and parallel).
  std::uint64_t migrations = 0;
  double time = 0.0;  ///< Virtual time of the step (async runner).

  bool operator==(const TracePoint&) const = default;
};

struct RunReport {
  Cost initial_makespan = 0.0;
  Cost final_makespan = 0.0;
  Cost best_makespan = 0.0;
  /// Pairwise operations: exchanges (sequential/parallel engines),
  /// completed sessions (async runner), steal attempts (work stealing).
  std::uint64_t exchanges = 0;
  /// Individual job moves — the network-cost proxy the paper's conclusion
  /// singles out (number of tasks exchanged).
  std::uint64_t migrations = 0;
  /// The run certified a terminal state (stable schedule / all jobs done).
  bool converged = false;

  // ----- elastic churn / recovery tallies (src/dist/churn) -----
  // All zero for a run without a churn plan; appended to the JSON schema
  // after the original six keys.

  std::uint64_t churn_joins = 0;
  std::uint64_t churn_drains = 0;
  std::uint64_t churn_crashes = 0;
  /// Jobs orphaned by crashes (plus any initially parked on pre-join
  /// machines).
  std::uint64_t churn_orphaned = 0;
  /// Orphans placed back onto live machines by the recovery path.
  std::uint64_t churn_redispatched = 0;
  /// Orphans still queued when the run ended (orphaned - redispatched).
  std::uint64_t churn_pending = 0;

  // ----- stochastic cost-model tallies (core/cost_model.hpp) -----
  // Appended to the JSON schema after the churn fields. All exactly zero
  // for a run without a cost model *and* for one whose model is entirely
  // degenerate — the zero-variance equivalence oracle compares report
  // bytes across those two cases.

  /// Jobs whose size distribution is not a point mass.
  std::uint64_t risk_jobs = 0;
  /// Largest per-machine completion-time standard deviation at the end of
  /// the run (normal approximation; core/risk.hpp load_stddev).
  double risk_sigma_max = 0.0;
  /// quantile_makespan(0.95) - final makespan: the price of uncertainty
  /// on the final schedule. Non-negative; 0 under zero variance.
  double risk_q95_excess = 0.0;

  /// One point per step when the engine's options set record_trace; not
  /// part of to_json() or print().
  std::vector<TracePoint> trace;

  /// Exchanges per machine (Figure 5's X axis normalisation, shared by
  /// every engine); 0 for an empty machine set.
  [[nodiscard]] double exchanges_per_machine(std::size_t num_machines) const {
    if (num_machines == 0) return 0.0;
    return static_cast<double>(exchanges) /
           static_cast<double>(num_machines);
  }

  /// The shared fields as an ordered JSON object. Key set and order are a
  /// stable schema consumed by bench telemetry and covered by a
  /// byte-identity test — extend only by appending.
  [[nodiscard]] stats::Json to_json() const;

  /// The shared CLI block (aligned "key : value" lines, the `dlbsim
  /// balance` format). Derived results print their extras after this.
  void print(std::ostream& out) const;
};

/// Fills the appended risk_* fields from the schedule's instance cost
/// model (leaves them zero when there is none). Every engine calls this
/// once on its finished schedule.
void fill_risk_report(RunReport& report, const Schedule& schedule);

}  // namespace dlb::dist
