#pragma once

// Invariant oracles: the paper's theorems and the library's structural
// contracts as executable checks. Each oracle inspects a state or a run
// result and appends a named Failure to a Report when the invariant is
// violated; the property harness (check/suite) evaluates them over seeded
// random instances across every cost regime, and the shrinker
// (check/shrink) minimizes whatever they reject.
//
// Bound-direction discipline: a lower bound may never exceed a feasible
// makespan, and the approximation theorems (Lemma 4, Theorems 5/6/7) are
// only asserted against the *exact* optimum on instances small enough to
// solve, under each theorem's own precondition — comparing against a lower
// bound instead would reject correct algorithms whenever the bound is
// loose.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "dist/async_runner.hpp"
#include "dist/exchange_engine.hpp"
#include "dist/open_system/open_engine.hpp"
#include "pairwise/pair_kernel.hpp"

namespace dlb::check {

/// Relative floating-point slack for every bound comparison: loads are
/// sums of ~dozens of doubles, so deviations far below this are
/// accumulation noise, not bugs.
inline constexpr double kRelTol = 1e-9;

/// Slack of the realization-consistency oracle: risk-aware balancing is a
/// heuristic, not a theorem, so its empirical p95 makespan is only
/// required not to be *grossly* worse than mean-based balancing under the
/// same paired realizations. The oracle adds the mean schedule's own
/// p95-p50 realization spread on top of this factor, so heavy-tailed
/// cases (where one job's draw dominates Cmax and both placements sit
/// inside the noise band) get proportionate slack while low-variance
/// cases stay tight. 0.35 still catches a risk kernel that
/// systematically inflates tail makespans.
inline constexpr double kRealizationTol = 0.35;

struct Failure {
  std::string oracle;  ///< Dotted oracle name, e.g. "kernel.idempotent".
  std::string detail;  ///< Human-readable diagnosis with the numbers.
};

/// Accumulates failures; one Report spans all oracles run on one case.
class Report {
 public:
  void fail(std::string_view oracle, std::string detail);

  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<Failure>& failures() const noexcept {
    return failures_;
  }

  /// "oracle: detail" lines, one per failure.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<Failure> failures_;
};

// ----- structural state oracles -----

/// Whether every job must sit on a machine. Open-system and churn schedules
/// hold some elsewhere: in service, not yet arrived, or waiting for
/// redispatch.
enum class JobsPlaced { kAll, kSome };

/// The schedule is a complete partition of all jobs (only under
/// JobsPlaced::kAll), its incremental LoadTable (loads, per-machine job
/// lists, cached makespan) matches a from-scratch recomputation, and, once
/// a two-cluster decision instance's ratio rank is built, every row flagged
/// in order (Schedule::row_in_order) ascends in its cluster's ratio order
/// (state.row_order, O(n)).
void check_schedule_state(const Schedule& schedule, Report& report,
                          JobsPlaced placed = JobsPlaced::kAll);

/// Round-trips the instance (and a matching assignment) through the
/// instance_io text format and demands exact equality of every field.
void check_io_roundtrip(const Instance& instance, const Assignment& initial,
                        Report& report);

// ----- pair kernel contract oracles -----

/// One kernel application on (a, b), evaluated on a copy:
///   * locality     — machines other than a/b keep bit-identical loads and
///                    job sets; pooled jobs stay on {a, b};
///   * conservation — the result is still a complete partition and the
///                    LoadTable is consistent;
///   * honesty      — the returned `changed` flag matches whether the
///                    assignment actually changed;
///   * idempotence  — a second application is a no-op (the determinism the
///                    stable-state definition of Section VII rests on).
void check_kernel_contract(const Schedule& schedule,
                           const pairwise::PairKernel& kernel, MachineId a,
                           MachineId b, Report& report);

// ----- bound oracles -----

/// Every certified lower bound is <= `feasible_makespan` (the makespan of
/// any feasible schedule of the instance).
void check_lower_bound_soundness(const Instance& instance,
                                 Cost feasible_makespan, Report& report);

/// Every certified lower bound is <= the exact optimum `opt`.
void check_lower_bounds_vs_opt(const Instance& instance, Cost opt,
                               Report& report);

// ----- theorem oracles (need the exact optimum) -----

/// Theorem 6: CLB2C produces a 2-approximation whenever
/// max p(i, j) <= OPT. Two-cluster instances with both clusters populated.
void check_clb2c_two_approx(const Instance& instance, Cost opt,
                            Report& report);

/// Theorem 7: a *stable* DLB2C schedule is a 2-approximation under the
/// same precondition. `stable` must already be certified stable.
void check_stable_two_approx(const Schedule& stable, Cost opt,
                             Report& report);

/// Lemma 4: a stable single-job-type schedule is optimal (compared against
/// the exact single-type optimum, no exact solver needed).
void check_stable_single_type_optimal(const Schedule& stable, Report& report);

/// Theorem 5: a stable MJTB schedule is bounded by the sum of per-type
/// optima (hence a k-approximation). Requires declared job types.
void check_stable_mjtb_bound(const Schedule& stable, Report& report);

// ----- run result oracles -----

/// Internal consistency of a sequential engine run: monotone best
/// makespan, aligned traces, non-decreasing migrations, first-crossing
/// threshold semantics, and final makespan >= the certified lower bound.
void check_run_result(const dist::RunResult& result, const Instance& instance,
                      Report& report);

/// Consistency of an async run against the schedule it produced: the
/// result's makespans match the schedule, no job was lost (complete
/// partition + consistent LoadTable), session/message accounting adds up,
/// and the virtual clock stayed within the horizon.
void check_async_result(const dist::AsyncRunResult& result,
                        const Schedule& schedule,
                        const dist::AsyncOptions& options, Report& report);

/// Convergence-detector soundness: when a run reports `converged`, the
/// final schedule must actually be stable under `kernel` (no ordered pair
/// application changes it).
void check_converged_is_stable(const dist::RunResult& result,
                               const Schedule& schedule,
                               const pairwise::PairKernel& kernel,
                               Report& report);

/// Elastic-run conservation (src/dist/churn): after a run under a churn
/// plan, every job is either assigned to a *live* machine exactly once or
/// accounted for in the pending re-dispatch queue — never lost, never
/// duplicated, never resident on a dead machine — and the orphan ledger
/// balances (orphaned == redispatched + pending).
void check_churn_conservation(const Schedule& schedule,
                              const dist::RunReport& result, Report& report);

// ----- open-system oracles (dist/open_system) -----

/// Job conservation for an open-system run: submitted == completed +
/// in_service + waiting, the waiting tally matches the jobs actually left
/// assigned in the schedule, completed <= submitted <= the arrival pool,
/// and a run that was not halted drained completely (every submitted job
/// completed, schedule empty). The per-event version of the invariant is
/// covered by fuzzing the halt point: every prefix of the event stream is
/// some case's halt_after_events.
void check_open_conservation(const dist::OpenRunReport& result,
                             const Schedule& schedule, Report& report);

/// Response-time and queue-length sanity on the report aggregates:
/// percentiles non-decreasing in q, response_mean >= 0 (completion >=
/// arrival for every job) and <= end_time, everything finite, and the
/// event count at least accounts for every arrival and completion.
void check_open_response_sanity(const dist::OpenRunReport& result,
                                Report& report);

// ----- stochastic cost-model oracles (core/cost_model, core/risk) -----

/// Zero-variance equivalence: attach an all-degenerate cost model (the
/// shape cycles with `salt` over det:1, det:2.5, normal:0, lognormal:0
/// and a point-mass Pareto) and demand that the risk-aware kernel and
/// selector variants reproduce the mean-based run *byte for byte* —
/// schedule fingerprint, RunReport JSON and exchange/epoch trace — on
/// both the sequential and the parallel engine. Runs on every case; it
/// needs no variance to be meaningful.
void check_zero_variance_equivalence(const Instance& instance,
                                     const Assignment& initial,
                                     std::uint64_t salt, Report& report);

/// Quantile monotonicity: on an instance with a cost model, the
/// normal-approximation quantile makespan is non-decreasing over
/// q in {0.5, 0.75, 0.9, 0.95, 0.99}, anchored bitwise at the median
/// (quantile_makespan(0.5) == makespan()), and every per-machine
/// quantile load at q >= 0.5 is >= the mean load.
void check_quantile_monotonicity(const Schedule& schedule, Report& report);

/// Realization consistency: balance once mean-based and once risk-aware
/// (q95), then sample paired size realizations and compare the empirical
/// p95 makespans — the risk-aware schedule must not be worse beyond
/// kRealizationTol plus the mean schedule's p95-p50 realization spread.
/// No-op without a model or with an all-degenerate one.
void check_realization_consistency(const Instance& instance,
                                   const Assignment& initial,
                                   std::uint64_t salt, Report& report);

}  // namespace dlb::check
