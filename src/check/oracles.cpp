#include "check/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "centralized/clb2c.hpp"
#include "core/cost_model.hpp"
#include "core/instance_io.hpp"
#include "core/lower_bounds.hpp"
#include "core/risk.hpp"
#include "core/validation.hpp"
#include "dist/convergence.hpp"
#include "dist/mjtb.hpp"
#include "dist/ojtb.hpp"
#include "dist/parallel_exchange_engine.hpp"
#include "dist/peer_selector.hpp"
#include "pairwise/kernel_registry.hpp"
#include "stats/rng.hpp"

namespace dlb::check {

namespace {

/// lhs <= rhs up to relative tolerance.
bool leq(Cost lhs, Cost rhs) {
  return lhs <= rhs + kRelTol * std::max(std::abs(lhs), std::abs(rhs));
}

std::string num(Cost value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace

void Report::fail(std::string_view oracle, std::string detail) {
  failures_.push_back(Failure{std::string(oracle), std::move(detail)});
}

std::string Report::to_string() const {
  std::string text;
  for (const Failure& failure : failures_) {
    text += failure.oracle;
    text += ": ";
    text += failure.detail;
    text += '\n';
  }
  return text;
}

// ----- structural state oracles -----

void check_schedule_state(const Schedule& schedule, Report& report) {
  std::string why;
  if (!is_complete_partition(schedule, &why)) {
    report.fail("state.partition", why);
  }
  if (!schedule.check_consistency()) {
    report.fail("state.load_table",
                "incremental loads/job lists drifted from a from-scratch "
                "recomputation");
  }
  Cost max_load = 0.0;
  for (MachineId i = 0; i < schedule.num_machines(); ++i) {
    max_load = std::max(max_load, schedule.load(i));
  }
  if (schedule.makespan() != max_load) {
    report.fail("state.makespan_cache",
                "cached makespan " + num(schedule.makespan()) +
                    " != max load " + num(max_load));
  }
  // A flagged row ascends in its own cluster's order: no neighbour pair is
  // strictly out of sort_by_group_ratio's comparator order (ties may come
  // in any order). Only the rank path merges flagged rows, so a flag has a
  // reader only once the decision instance's ratio rank is built; on an
  // instance the rank refuses, rounded cross products need not order the
  // jobs at all (core/ratio_rank.hpp), and flags there are not checked.
  const Instance& decision = schedule.decision_instance();
  if (decision.num_groups() != 2 || decision.ratio_rank(0) == nullptr) return;
  for (MachineId i = 0; i < schedule.num_machines(); ++i) {
    if (!schedule.row_in_order(i)) continue;
    const GroupId own = decision.group_of(i);
    const std::span<const Cost> num_row = decision.group_row(own);
    const std::span<const Cost> den_row = decision.group_row(own == 0 ? 1 : 0);
    const LoadTable::JobList row = schedule.jobs_on(i);
    for (std::size_t p = 1; p < row.size(); ++p) {
      const JobId x = row[p - 1];
      const JobId y = row[p];
      if (num_row[y] * den_row[x] < num_row[x] * den_row[y]) {
        report.fail("state.row_order",
                    "machine " + std::to_string(i) + " is flagged in order, "
                    "but job " + std::to_string(y) + " at position " +
                        std::to_string(p) + " sorts before job " +
                        std::to_string(x));
        break;
      }
    }
  }
}

void check_io_roundtrip(const Instance& instance, const Assignment& initial,
                        Report& report) {
  std::stringstream buffer;
  io::save_instance(instance, buffer);
  bool load_ok = true;
  Instance loaded = [&]() -> Instance {
    try {
      return io::load_instance(buffer);
    } catch (const std::exception& e) {
      report.fail("io.instance_load", e.what());
      load_ok = false;
      return Instance::identical(1, {1.0});
    }
  }();
  if (!load_ok) return;

  if (loaded.num_machines() != instance.num_machines() ||
      loaded.num_groups() != instance.num_groups() ||
      loaded.num_jobs() != instance.num_jobs()) {
    report.fail("io.instance_shape", "shape changed across save/load");
    return;
  }
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    if (loaded.group_of(i) != instance.group_of(i) ||
        loaded.scale(i) != instance.scale(i)) {
      report.fail("io.instance_machines",
                  "group/scale of machine " + std::to_string(i) +
                      " changed across save/load");
      return;
    }
  }
  for (GroupId g = 0; g < instance.num_groups(); ++g) {
    for (JobId j = 0; j < instance.num_jobs(); ++j) {
      if (loaded.group_cost(g, j) != instance.group_cost(g, j)) {
        report.fail("io.instance_costs",
                    "cost(" + std::to_string(g) + ", " + std::to_string(j) +
                        ") changed across save/load");
        return;
      }
    }
  }
  if (loaded.has_job_types() != instance.has_job_types()) {
    report.fail("io.instance_types", "job-type declaration lost");
  } else if (instance.has_job_types()) {
    for (JobId j = 0; j < instance.num_jobs(); ++j) {
      if (loaded.job_type(j) != instance.job_type(j)) {
        report.fail("io.instance_types",
                    "type of job " + std::to_string(j) + " changed");
        break;
      }
    }
  }
  if (loaded.has_cost_model() != instance.has_cost_model()) {
    report.fail("io.instance_cost_model", "cost-model declaration lost");
  } else if (instance.has_cost_model() &&
             !(loaded.cost_model() == instance.cost_model())) {
    report.fail("io.instance_cost_model",
                "a job-size distribution changed across save/load");
  }

  std::stringstream assignment_buffer;
  io::save_assignment(initial, assignment_buffer);
  try {
    const Assignment loaded_assignment =
        io::load_assignment(assignment_buffer);
    if (loaded_assignment != initial) {
      report.fail("io.assignment", "assignment changed across save/load");
    }
  } catch (const std::exception& e) {
    report.fail("io.assignment_load", e.what());
  }
}

// ----- pair kernel contract oracles -----

void check_kernel_contract(const Schedule& schedule,
                           const pairwise::PairKernel& kernel, MachineId a,
                           MachineId b, Report& report) {
  Schedule copy = schedule;
  const bool changed = kernel.balance(copy, a, b);

  if (changed == (copy.assignment() == schedule.assignment())) {
    report.fail("kernel.honesty",
                std::string(kernel.name()) + " returned changed=" +
                    (changed ? "true" : "false") +
                    " but the assignment says otherwise");
  }
  if (!copy.check_consistency()) {
    report.fail("kernel.load_table", std::string(kernel.name()) +
                                         " left an inconsistent LoadTable");
  }
  for (MachineId i = 0; i < schedule.num_machines(); ++i) {
    if (i == a || i == b) continue;
    if (copy.load(i) != schedule.load(i)) {
      report.fail("kernel.locality",
                  std::string(kernel.name()) + " changed the load of " +
                      "uninvolved machine " + std::to_string(i));
    }
  }
  for (JobId j = 0; j < schedule.num_jobs(); ++j) {
    const MachineId before = schedule.machine_of(j);
    const MachineId after = copy.machine_of(j);
    const bool pooled = before == a || before == b;
    if (!pooled && after != before) {
      report.fail("kernel.locality",
                  std::string(kernel.name()) + " moved job " +
                      std::to_string(j) + " that was on neither machine");
    }
    if (pooled && after != a && after != b) {
      report.fail("kernel.conservation",
                  std::string(kernel.name()) + " moved pooled job " +
                      std::to_string(j) + " off the pair");
    }
  }

  const bool changed_again = kernel.balance(copy, a, b);
  if (changed_again) {
    report.fail("kernel.idempotent",
                std::string(kernel.name()) +
                    " changed the schedule on an immediate second "
                    "application to the same pair");
  }
}

// ----- bound oracles -----

void check_lower_bound_soundness(const Instance& instance,
                                 Cost feasible_makespan, Report& report) {
  const struct {
    const char* name;
    Cost value;
  } bounds[] = {
      {"max_min_cost", max_min_cost_bound(instance)},
      {"min_work", min_work_bound(instance)},
      {"combined", makespan_lower_bound(instance)},
  };
  for (const auto& bound : bounds) {
    if (!leq(bound.value, feasible_makespan)) {
      report.fail("bound.soundness",
                  std::string(bound.name) + " bound " + num(bound.value) +
                      " exceeds feasible makespan " +
                      num(feasible_makespan));
    }
  }
}

void check_lower_bounds_vs_opt(const Instance& instance, Cost opt,
                               Report& report) {
  if (!leq(makespan_lower_bound(instance), opt)) {
    report.fail("bound.vs_opt", "combined lower bound " +
                                    num(makespan_lower_bound(instance)) +
                                    " exceeds exact OPT " + num(opt));
  }
}

// ----- theorem oracles -----

void check_clb2c_two_approx(const Instance& instance, Cost opt,
                            Report& report) {
  if (!leq(instance.max_cost(), opt)) return;  // Theorem 6 precondition.
  const Schedule schedule = centralized::clb2c_schedule(instance);
  if (!leq(schedule.makespan(), 2.0 * opt)) {
    report.fail("theorem6.clb2c",
                "CLB2C makespan " + num(schedule.makespan()) + " > 2 * OPT " +
                    num(2.0 * opt) + " despite max cost <= OPT");
  }
}

void check_stable_two_approx(const Schedule& stable, Cost opt,
                             Report& report) {
  if (!leq(stable.instance().max_cost(), opt)) return;
  if (!leq(stable.makespan(), 2.0 * opt)) {
    report.fail("theorem7.stable_dlb2c",
                "stable DLB2C makespan " + num(stable.makespan()) +
                    " > 2 * OPT " + num(2.0 * opt) +
                    " despite max cost <= OPT");
  }
}

void check_stable_single_type_optimal(const Schedule& stable,
                                      Report& report) {
  const Instance& instance = stable.instance();
  if (instance.num_jobs() == 0) return;
  std::vector<Cost> per_job(instance.num_machines());
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    per_job[i] = instance.cost(i, 0);
  }
  const Cost optimal =
      dist::single_type_optimal_makespan(per_job, instance.num_jobs());
  // Lemma 4: converged OJTB is optimal — equality up to fp noise.
  if (!leq(stable.makespan(), optimal) || !leq(optimal, stable.makespan())) {
    report.fail("lemma4.single_type",
                "stable single-type makespan " + num(stable.makespan()) +
                    " != single-type optimum " + num(optimal));
  }
}

void check_stable_mjtb_bound(const Schedule& stable, Report& report) {
  const Cost bound = dist::mjtb_convergence_bound(stable.instance());
  if (!leq(stable.makespan(), bound)) {
    report.fail("theorem5.mjtb",
                "stable MJTB makespan " + num(stable.makespan()) +
                    " > sum of per-type optima " + num(bound));
  }
}

// ----- run result oracles -----

void check_run_result(const dist::RunResult& result, const Instance& instance,
                      Report& report) {
  const Cost lb = makespan_lower_bound(instance);
  if (!leq(lb, result.final_makespan)) {
    report.fail("run.lower_bound", "final makespan " +
                                       num(result.final_makespan) +
                                       " beats the lower bound " + num(lb));
  }
  if (!leq(lb, result.best_makespan)) {
    report.fail("run.lower_bound", "best makespan " +
                                       num(result.best_makespan) +
                                       " beats the lower bound " + num(lb));
  }
  if (!leq(result.best_makespan, result.initial_makespan) ||
      !leq(result.best_makespan, result.final_makespan)) {
    report.fail("run.best_monotone",
                "best makespan " + num(result.best_makespan) +
                    " exceeds initial " + num(result.initial_makespan) +
                    " or final " + num(result.final_makespan));
  }
  if (result.changed_exchanges > result.exchanges) {
    report.fail("run.counters", "more changed exchanges than exchanges");
  }

  Cost best_seen = result.initial_makespan;
  Cost previous = result.initial_makespan;
  std::uint64_t previous_migrations = 0;
  for (std::size_t x = 0; x < result.trace.size(); ++x) {
    const dist::TracePoint& point = result.trace[x];
    if (point.migrations < previous_migrations) {
      report.fail("run.migrations_monotone",
                  "cumulative migrations decreased at exchange " +
                      std::to_string(x));
      return;
    }
    if (point.count == 0 && point.makespan != previous) {
      report.fail("run.noop_makespan",
                  "exchange " + std::to_string(x) +
                      " reported changed=false but the makespan moved");
      return;
    }
    previous = point.makespan;
    previous_migrations = point.migrations;
    best_seen = std::min(best_seen, point.makespan);
  }
  if (!result.trace.empty()) {
    if (result.best_makespan != best_seen) {
      report.fail("run.best_monotone",
                  "best makespan " + num(result.best_makespan) +
                      " is not the running minimum " + num(best_seen));
    }
    if (result.final_makespan != result.trace.back().makespan) {
      report.fail("run.trace_final",
                  "final makespan differs from the last trace point");
    }
    if (result.reached_threshold) {
      if (result.exchanges_to_threshold == 0 ||
          result.exchanges_to_threshold > result.trace.size()) {
        report.fail("run.threshold", "exchanges_to_threshold out of range");
      }
    }
  }
}

void check_async_result(const dist::AsyncRunResult& result,
                        const Schedule& schedule,
                        const dist::AsyncOptions& options, Report& report) {
  check_schedule_state(schedule, report);
  if (result.final_makespan != schedule.makespan()) {
    report.fail("async.final",
                "result final makespan " + num(result.final_makespan) +
                    " != schedule makespan " + num(schedule.makespan()));
  }
  const Cost lb = makespan_lower_bound(schedule.instance());
  if (!leq(lb, result.final_makespan)) {
    report.fail("async.lower_bound",
                "final makespan " + num(result.final_makespan) +
                    " beats the lower bound " + num(lb));
  }
  if (!leq(result.best_makespan, result.initial_makespan) ||
      !leq(result.best_makespan, result.final_makespan)) {
    report.fail("async.best_monotone", "best makespan is not a minimum");
  }
  if (result.end_time > options.duration + kRelTol) {
    report.fail("async.horizon",
                "virtual clock " + num(result.end_time) +
                    " overran the horizon " + num(options.duration));
  }
  if (options.fault_plan == nullptr) {
    // Reliable network: every completed session took exactly 3 messages
    // and every rejection 2; in-flight messages at the horizon only add.
    const std::uint64_t floor_messages =
        3 * result.exchanges + 2 * result.sessions_rejected;
    if (result.messages < floor_messages) {
      report.fail("async.messages",
                  std::to_string(result.messages) +
                      " messages cannot carry " +
                      std::to_string(result.exchanges) +
                      " completed + " +
                      std::to_string(result.sessions_rejected) +
                      " rejected sessions");
    }
    if (result.faults.total() != 0) {
      report.fail("async.faults", "faults reported without a fault plan");
    }
    if (result.stale_messages != 0 && !options.session_timeout.has_value()) {
      report.fail("async.stale",
                  "stale messages on a reliable network without timeouts");
    }
  }
}

void check_converged_is_stable(const dist::RunResult& result,
                               const Schedule& schedule,
                               const pairwise::PairKernel& kernel,
                               Report& report) {
  if (!result.converged) return;
  if (!dist::is_stable(schedule, kernel)) {
    report.fail("convergence.detector",
                "run reported converged but a pairwise exchange still "
                "changes the schedule");
  }
}

void check_churn_conservation(const Schedule& schedule,
                              const dist::RunReport& result, Report& report) {
  std::uint64_t unassigned = 0;
  for (JobId j = 0; j < schedule.num_jobs(); ++j) {
    const MachineId machine = schedule.machine_of(j);
    if (machine == kUnassigned) {
      ++unassigned;
      continue;
    }
    if (machine >= schedule.num_machines()) {
      report.fail("churn.assignment_range",
                  "job " + std::to_string(j) + " assigned to machine " +
                      std::to_string(machine) + " of " +
                      std::to_string(schedule.num_machines()));
      continue;
    }
    if (!schedule.is_live(machine)) {
      report.fail("churn.dead_resident",
                  "job " + std::to_string(j) +
                      " still resident on dead machine " +
                      std::to_string(machine));
    }
  }
  if (unassigned != result.churn_pending) {
    report.fail("churn.job_conservation",
                std::to_string(unassigned) +
                    " unassigned jobs in the schedule but churn_pending = " +
                    std::to_string(result.churn_pending));
  }
  if (result.churn_orphaned !=
      result.churn_redispatched + result.churn_pending) {
    report.fail("churn.orphan_ledger",
                "orphaned = " + std::to_string(result.churn_orphaned) +
                    " but redispatched + pending = " +
                    std::to_string(result.churn_redispatched) + " + " +
                    std::to_string(result.churn_pending));
  }
  // Duplicates would double-list a job on some machine: the per-machine
  // lists plus the pending queue must tile the job set exactly.
  std::size_t listed = 0;
  for (MachineId i = 0; i < schedule.num_machines(); ++i) {
    listed += schedule.jobs_on(i).size();
  }
  if (listed + unassigned != schedule.num_jobs()) {
    report.fail("churn.duplicate_or_lost",
                std::to_string(listed) + " listed + " +
                    std::to_string(unassigned) + " pending != " +
                    std::to_string(schedule.num_jobs()) + " jobs");
  }
  if (!schedule.check_consistency()) {
    report.fail("churn.load_table",
                "incremental LoadTable state drifted during the elastic run");
  }
}

// ----- stochastic cost-model oracles -----

namespace {

/// The all-degenerate model shapes the zero-variance oracle cycles
/// through: every one is a point mass, each reaching it through a
/// different code path (plain det, scaled det, zero-sigma normal and
/// lognormal, collapsed-support Pareto).
cost::Dist degenerate_dist(std::uint64_t salt) {
  cost::Dist dist;
  switch (salt % 5) {
    case 0:
      break;  // det:1 -- prediction exact.
    case 1:
      dist.value = 2.5;
      break;
    case 2:
      dist.kind = cost::DistKind::kNormal;
      break;  // sigma stays 0.
    case 3:
      dist.kind = cost::DistKind::kLognormal;
      break;
    default:
      dist.kind = cost::DistKind::kPareto;
      dist.lo = 1.75;
      dist.hi = 1.75;  // Point mass at 1.75.
      break;
  }
  return dist;
}

}  // namespace

void check_zero_variance_equivalence(const Instance& instance,
                                     const Assignment& initial,
                                     std::uint64_t salt, Report& report) {
  if (instance.num_machines() < 2) return;
  Instance degenerate = instance;
  degenerate.set_cost_model(cost::CostModel(
      std::vector<cost::Dist>(instance.num_jobs(), degenerate_dist(salt))));
  // The deterministic counterpart carries no model at all: an
  // all-degenerate model must be indistinguishable from its absence,
  // down to the (all-zero) risk fields in the RunReport bytes.
  Instance baseline = instance;
  baseline.clear_cost_model();

  // One risk mode per case (both cycle across the sweep), exercised in
  // both the kernel and the peer selector.
  const bool quantile_mode = salt % 2 == 0;
  const pairwise::KernelRegistry& registry = pairwise::kernel_registry();
  const pairwise::PairKernel& mean_kernel = registry.get("basic-greedy");
  const pairwise::PairKernel& risk_kernel = registry.get(
      quantile_mode ? "basic-greedy_q95" : "basic-greedy_effsize");
  const dist::MaxLoadPeerSelector mean_selector;
  const dist::MaxLoadPeerSelector risk_selector(
      quantile_mode ? dist::MaxLoadPeerSelector::Mode::kQuantile
                    : dist::MaxLoadPeerSelector::Mode::kEffectiveSize);

  dist::EngineOptions options;
  options.max_exchanges = 12 * instance.num_machines();
  options.record_trace = true;

  Schedule mean_schedule(baseline, initial);
  stats::Rng mean_rng = stats::Rng::stream(salt, 17);
  const dist::ExchangeEngine mean_engine(mean_kernel, mean_selector);
  const dist::RunResult mean_run =
      mean_engine.run(mean_schedule, options, mean_rng);

  Schedule risk_schedule(degenerate, initial);
  stats::Rng risk_rng = stats::Rng::stream(salt, 17);
  const dist::ExchangeEngine risk_engine(risk_kernel, risk_selector);
  const dist::RunResult risk_run =
      risk_engine.run(risk_schedule, options, risk_rng);

  if (risk_schedule.fingerprint() != mean_schedule.fingerprint()) {
    report.fail("zero_variance.schedule",
                std::string(risk_kernel.name()) +
                    " under an all-degenerate model diverged from " +
                    std::string(mean_kernel.name()));
  }
  if (risk_run.to_json().dump() != mean_run.to_json().dump()) {
    report.fail("zero_variance.report",
                "RunReport JSON differs under an all-degenerate model: " +
                    risk_run.to_json().dump() + " vs " +
                    mean_run.to_json().dump());
  }
  if (risk_run.trace != mean_run.trace) {
    report.fail("zero_variance.trace",
                "exchange trace bytes differ under an all-degenerate model");
  }

  // Parallel engine, null pool: bitwise identical to any thread count by
  // the engine's plan/execute/commit contract, so this covers them all.
  dist::ParallelEngineOptions par_options;
  par_options.max_exchanges = 12 * instance.num_machines();
  par_options.record_trace = true;

  Schedule par_mean(baseline, initial);
  const dist::ParallelExchangeEngine par_mean_engine(mean_kernel,
                                                     mean_selector);
  const dist::ParallelRunResult par_mean_run =
      par_mean_engine.run(par_mean, par_options, salt + 1);

  Schedule par_risk(degenerate, initial);
  const dist::ParallelExchangeEngine par_risk_engine(risk_kernel,
                                                     risk_selector);
  const dist::ParallelRunResult par_risk_run =
      par_risk_engine.run(par_risk, par_options, salt + 1);

  if (par_risk.fingerprint() != par_mean.fingerprint() ||
      par_risk_run.to_json().dump() != par_mean_run.to_json().dump() ||
      par_risk_run.trace != par_mean_run.trace) {
    report.fail("zero_variance.parallel",
                "parallel-engine run diverged under an all-degenerate model");
  }
}

void check_quantile_monotonicity(const Schedule& schedule, Report& report) {
  if (!schedule.instance().has_cost_model()) return;

  // Median anchor: z(0.5) is exactly 0 in the Acklam central branch, so
  // the q = 0.5 quantile makespan must equal the mean makespan bitwise.
  const double anchor = cost::quantile_makespan(schedule, 0.5);
  if (anchor != schedule.makespan()) {
    report.fail("risk.median_anchor",
                "quantile_makespan(0.5) = " + num(anchor) +
                    " != makespan " + num(schedule.makespan()));
  }

  static constexpr double kGrid[] = {0.5, 0.75, 0.9, 0.95, 0.99};
  double previous = -std::numeric_limits<double>::infinity();
  double previous_q = 0.0;
  for (const double q : kGrid) {
    const double quantile = cost::quantile_makespan(schedule, q);
    if (quantile + kRelTol * std::max(1.0, std::abs(quantile)) < previous) {
      report.fail("risk.quantile_monotone",
                  "quantile makespan fell from " + num(previous) + " at q=" +
                      num(previous_q) + " to " + num(quantile) + " at q=" +
                      num(q));
    }
    previous = quantile;
    previous_q = q;
  }

  // Above the median, uncertainty can only add: every machine's quantile
  // load dominates its mean load.
  for (MachineId i = 0; i < schedule.num_machines(); ++i) {
    for (const double q : {0.75, 0.95}) {
      const double quantile = cost::quantile_load(schedule, i, q);
      if (!leq(schedule.load(i), quantile)) {
        report.fail("risk.quantile_floor",
                    "quantile_load(" + std::to_string(i) + ", " + num(q) +
                        ") = " + num(quantile) + " below the mean load " +
                        num(schedule.load(i)));
      }
    }
  }
}

void check_realization_consistency(const Instance& instance,
                                   const Assignment& initial,
                                   std::uint64_t salt, Report& report) {
  if (!instance.has_cost_model() || instance.cost_model().all_degenerate()) {
    return;
  }
  if (instance.num_machines() < 2 || instance.num_jobs() == 0) return;

  const pairwise::KernelRegistry& registry = pairwise::kernel_registry();
  const pairwise::PairKernel& mean_kernel = registry.get("basic-greedy");
  const pairwise::PairKernel& risk_kernel = registry.get("basic-greedy_q95");
  const dist::UniformPeerSelector selector;

  dist::EngineOptions options;
  options.max_exchanges = 16 * instance.num_machines();

  Schedule mean_schedule(instance, initial);
  stats::Rng mean_rng = stats::Rng::stream(salt, 29);
  const dist::ExchangeEngine mean_engine(mean_kernel, selector);
  const dist::RunResult mean_run =
      mean_engine.run(mean_schedule, options, mean_rng);
  static_cast<void>(mean_run);

  Schedule risk_schedule(instance, initial);
  stats::Rng risk_rng = stats::Rng::stream(salt, 29);
  const dist::ExchangeEngine risk_engine(risk_kernel, selector);
  const dist::RunResult risk_run =
      risk_engine.run(risk_schedule, options, risk_rng);
  static_cast<void>(risk_run);

  // Paired sampling: the same factor vector prices both schedules, so the
  // comparison isolates placement, not sampling luck.
  constexpr std::size_t kRealizations = 64;
  std::vector<double> mean_cmax;
  std::vector<double> risk_cmax;
  mean_cmax.reserve(kRealizations);
  risk_cmax.reserve(kRealizations);
  stats::Rng sample_rng = stats::Rng::stream(salt, 31);
  for (std::size_t r = 0; r < kRealizations; ++r) {
    const std::vector<double> factors =
        cost::sample_factors(instance.cost_model(), sample_rng);
    mean_cmax.push_back(cost::realized_makespan(mean_schedule, factors));
    risk_cmax.push_back(cost::realized_makespan(risk_schedule, factors));
  }
  std::sort(mean_cmax.begin(), mean_cmax.end());
  std::sort(risk_cmax.begin(), risk_cmax.end());
  const std::size_t p95 = (kRealizations * 95 + 99) / 100 - 1;
  const std::size_t p50 = kRealizations / 2;
  // Slack has three parts. (1) The fixed multiplicative tolerance.
  // (2) The mean schedule's own p95-p50 realization spread: under heavy
  // tails a single job's draw dominates Cmax and both greedy placements
  // sit inside that noise band, so a purely multiplicative bound misfires
  // on tiny Pareto cases. (3) The surrogate-objective ratio: greedy local
  // search can end a risk trajectory in a worse local optimum than the
  // mean trajectory found *even as measured by the risk surrogate
  // itself* — that is trajectory luck, not mispricing, and it is
  // deterministically observable, so the empirical requirement relaxes by
  // exactly that ratio. A genuine pricing bug (surrogate claims parity
  // while realizations blow up) keeps the bound tight.
  const Instance adjusted = cost::risk_adjusted_instance(
      instance, cost::RiskMode::kQuantile, cost::kRiskQuantile);
  const auto surrogate_makespan = [&](const Schedule& schedule) {
    std::vector<double> loads(adjusted.num_machines(), 0.0);
    for (JobId j = 0; j < adjusted.num_jobs(); ++j) {
      const MachineId i = schedule.machine_of(j);
      if (i != kUnassigned) loads[i] += adjusted.cost(i, j);
    }
    return *std::max_element(loads.begin(), loads.end());
  };
  const double surr_mean = surrogate_makespan(mean_schedule);
  const double surr_risk = surrogate_makespan(risk_schedule);
  const double trajectory_ratio =
      surr_mean > 0.0 ? std::max(1.0, surr_risk / surr_mean) : 1.0;
  const double spread = mean_cmax[p95] - mean_cmax[p50];
  const double bound =
      (mean_cmax[p95] + kRealizationTol * std::max(1.0, mean_cmax[p95]) +
       spread) *
          trajectory_ratio +
      kRelTol;
  if (risk_cmax[p95] > bound) {
    report.fail("risk.realization_p95",
                "risk-aware empirical p95 Cmax " + num(risk_cmax[p95]) +
                    " worse than mean-based " + num(mean_cmax[p95]) +
                    " beyond tolerance " + num(kRealizationTol) +
                    " plus noise spread " + num(spread) +
                    " and trajectory ratio " + num(trajectory_ratio));
  }
}

// ----- open-system oracles (dist/open_system) -----

void check_open_conservation(const dist::OpenRunReport& result,
                             const Schedule& schedule, Report& report) {
  if (result.jobs_submitted >
      static_cast<std::uint64_t>(schedule.num_jobs())) {
    report.fail("open.job_conservation",
                "submitted " + std::to_string(result.jobs_submitted) +
                    " jobs from a pool of " +
                    std::to_string(schedule.num_jobs()));
  }
  if (result.jobs_completed + result.jobs_in_service + result.jobs_waiting !=
      result.jobs_submitted) {
    report.fail("open.job_conservation",
                "submitted = " + std::to_string(result.jobs_submitted) +
                    " but completed + in_service + waiting = " +
                    std::to_string(result.jobs_completed) + " + " +
                    std::to_string(result.jobs_in_service) + " + " +
                    std::to_string(result.jobs_waiting));
  }
  std::uint64_t assigned = 0;
  for (JobId j = 0; j < schedule.num_jobs(); ++j) {
    if (schedule.machine_of(j) != kUnassigned) ++assigned;
  }
  if (assigned != result.jobs_waiting) {
    report.fail("open.job_conservation",
                std::to_string(assigned) +
                    " jobs assigned in the final schedule but jobs_waiting "
                    "= " +
                    std::to_string(result.jobs_waiting));
  }
  if (!result.halted &&
      (result.jobs_completed != result.jobs_submitted ||
       result.jobs_in_service != 0 || result.jobs_waiting != 0)) {
    report.fail("open.drained",
                "run reported converged-by-draining but " +
                    std::to_string(result.jobs_submitted) +
                    " submitted != " +
                    std::to_string(result.jobs_completed) + " completed (" +
                    std::to_string(result.jobs_in_service) +
                    " in service, " + std::to_string(result.jobs_waiting) +
                    " waiting)");
  }
  // Every arrival and every completion is one event; repair bursts only
  // add to the count.
  if (result.events < result.jobs_submitted + result.jobs_completed) {
    report.fail("open.event_count",
                std::to_string(result.events) + " events cannot cover " +
                    std::to_string(result.jobs_submitted) +
                    " arrivals and " +
                    std::to_string(result.jobs_completed) + " completions");
  }
}

void check_open_response_sanity(const dist::OpenRunReport& result,
                                Report& report) {
  const auto finite_nonneg = [&](double value, const char* what) {
    if (!std::isfinite(value) || value < 0.0) {
      report.fail("open.response_sanity",
                  std::string(what) + " = " + num(value) +
                      " (want finite and >= 0)");
    }
  };
  finite_nonneg(result.end_time, "end_time");
  finite_nonneg(result.response_mean, "response_mean");
  finite_nonneg(result.response_p50, "response_p50");
  finite_nonneg(result.response_p95, "response_p95");
  finite_nonneg(result.response_p99, "response_p99");
  if (result.response_p50 > result.response_p95 ||
      result.response_p95 > result.response_p99) {
    report.fail("open.response_sanity",
                "response percentiles not monotone: p50 " +
                    num(result.response_p50) + ", p95 " +
                    num(result.response_p95) + ", p99 " +
                    num(result.response_p99));
  }
  if (result.queue_p50 > result.queue_p95 ||
      result.queue_p95 > result.queue_p99) {
    report.fail("open.response_sanity",
                "queue percentiles not monotone: p50 " +
                    num(result.queue_p50) + ", p95 " +
                    num(result.queue_p95) + ", p99 " +
                    num(result.queue_p99));
  }
  // completion >= arrival for every job (responses are non-negative) and
  // arrivals start at t >= 0, so no mean response can exceed the clock.
  if (result.jobs_completed > 0 && result.response_mean > result.end_time) {
    report.fail("open.response_sanity",
                "mean response " + num(result.response_mean) +
                    " exceeds the virtual clock " + num(result.end_time));
  }
}

}  // namespace dlb::check
