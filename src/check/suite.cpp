#include "check/suite.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "centralized/exact_bnb.hpp"
#include "check/shrink.hpp"
#include "core/instance_io.hpp"
#include "core/lower_bounds.hpp"
#include "core/validation.hpp"
#include "dist/churn.hpp"
#include "dist/convergence.hpp"
#include "dist/exchange_engine.hpp"
#include "dist/open_system/open_engine.hpp"
#include "dist/parallel_exchange_engine.hpp"
#include "pairwise/kernel_registry.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace dlb::check {

namespace {

/// Exact solver budget per case: tiny shapes prove in far fewer nodes;
/// an unproven result silently skips the theorem oracles (never a
/// failure — the bound discipline forbids asserting against estimates).
constexpr std::uint64_t kExactNodeLimit = 500'000;

bool two_populated_clusters(const Instance& instance) {
  return instance.num_groups() == 2 && instance.unit_scales() &&
         !instance.machines_in_group(0).empty() &&
         !instance.machines_in_group(1).empty();
}

/// The regime-appropriate engine kernel: the most specific algorithm whose
/// preconditions the instance satisfies. Instances come from the shared
/// kernel registry, so the suite exercises the exact objects the CLI and
/// benches hand out.
const pairwise::PairKernel& kernel_for(const Instance& instance) {
  const pairwise::KernelRegistry& registry = pairwise::kernel_registry();
  if (two_populated_clusters(instance)) return registry.get("dlb2c");
  if (instance.unit_scales() && instance.num_groups() >= 2) {
    return registry.get("dlbkc");
  }
  if (instance.has_job_types()) return registry.get("typed-greedy");
  return registry.get("basic-greedy");
}

/// Every kernel whose preconditions the instance satisfies, for the
/// per-pair contract oracle.
std::vector<const pairwise::PairKernel*> applicable_kernels(
    const Instance& instance) {
  const pairwise::KernelRegistry& registry = pairwise::kernel_registry();
  std::vector<const pairwise::PairKernel*> kernels{
      &registry.get("basic-greedy")};
  if (instance.has_job_types()) {
    kernels.push_back(&registry.get("typed-greedy"));
  }
  if (instance.num_groups() == 2 && instance.unit_scales()) {
    kernels.push_back(&registry.get("dlb2c"));
  }
  if (instance.unit_scales() && instance.num_groups() >= 1) {
    kernels.push_back(&registry.get("dlbkc"));
  }
  return kernels;
}

void check_kernels(const Schedule& schedule, stats::Rng& rng,
                   Report& report) {
  const auto m = static_cast<std::uint64_t>(schedule.num_machines());
  if (m < 2) return;
  for (const pairwise::PairKernel* kernel :
       applicable_kernels(schedule.instance())) {
    // Two random ordered pairs per kernel per case; across thousands of
    // cases that covers the pair space densely.
    for (int draw = 0; draw < 2; ++draw) {
      const auto a = static_cast<MachineId>(rng.below(m));
      auto b = static_cast<MachineId>(rng.below(m - 1));
      if (b >= a) ++b;
      check_kernel_contract(schedule, *kernel, a, b, report);
    }
  }
}

void check_engine(const Instance& instance, const Assignment& initial,
                  const CaseContext& context, Report& report,
                  SuiteSummary* summary) {
  if (instance.num_machines() < 2) return;
  const pairwise::PairKernel& kernel = kernel_for(instance);
  const dist::UniformPeerSelector selector;
  const dist::ExchangeEngine engine(kernel, selector);

  dist::EngineOptions options;
  options.max_exchanges = 24 * instance.num_machines();
  options.record_trace = true;
  options.stability_check_interval = 8;

  Schedule schedule(instance, initial);
  stats::Rng rng = stats::Rng::stream(context.seed, context.index * 8 + 1);
  const dist::RunResult result = engine.run(schedule, options, rng);
  if (summary != nullptr) ++summary->engine_runs;

  check_schedule_state(schedule, report);
  check_run_result(result, instance, report);
  check_converged_is_stable(result, schedule, kernel, report);

  // Differential determinism: the same seed must reproduce the run
  // bit-for-bit (what --seed replay and the shrinker rely on).
  Schedule replay(instance, initial);
  stats::Rng replay_rng =
      stats::Rng::stream(context.seed, context.index * 8 + 1);
  const dist::RunResult again = engine.run(replay, options, replay_rng);
  if (replay.fingerprint() != schedule.fingerprint() ||
      again.exchanges != result.exchanges ||
      again.migrations != result.migrations ||
      again.final_makespan != result.final_makespan) {
    report.fail("diff.engine_determinism",
                "two runs with the same seed diverged");
  }
}

/// Elastic fuzzing: every case also runs both engines under a seeded
/// random churn plan (joins/drains/crashes), asserting job conservation
/// through crash + redispatch, and proves the checkpoint contract by
/// halting the sequential run mid-flight, round-tripping the checkpoint
/// through its text format, resuming, and demanding the finished run be
/// bitwise identical to one that never stopped. The halted and the resumed
/// schedule both pass the state oracle, orphans and all.
void check_churn(const Instance& instance, const Assignment& initial,
                 const CaseContext& context, Report& report,
                 SuiteSummary* summary) {
  if (instance.num_machines() < 2) return;
  const pairwise::PairKernel& kernel = kernel_for(instance);
  const dist::UniformPeerSelector selector;

  const std::uint64_t churn_seed =
      context.seed ^ (context.index * 0xC0FFEEULL + 7);
  const dist::ChurnPlan plan = dist::ChurnPlan::random(
      instance.num_machines(), /*epochs=*/6, /*join_p=*/0.35,
      /*drain_p=*/0.25, /*crash_p=*/0.4, churn_seed);
  if (plan.trivial()) return;

  const dist::ExchangeEngine engine(kernel, selector);
  dist::EngineOptions options;
  options.max_exchanges = 16 * instance.num_machines();
  options.churn = &plan;

  Schedule schedule(instance, initial);
  stats::Rng rng = stats::Rng::stream(context.seed, context.index * 8 + 2);
  const dist::RunResult result = engine.run(schedule, options, rng);
  if (summary != nullptr) ++summary->churn_runs;
  check_churn_conservation(schedule, result, report);

  // Interrupted == uninterrupted: halt at an interior epoch, snapshot,
  // restore from the serialized bytes, finish, compare everything.
  if (result.epochs > 1) {
    dist::Checkpoint checkpoint;
    dist::EngineOptions halt_options = options;
    halt_options.halt_after_epoch = result.epochs / 2;
    halt_options.checkpoint_out = &checkpoint;
    Schedule halted(instance, initial);
    stats::Rng halted_rng =
        stats::Rng::stream(context.seed, context.index * 8 + 2);
    const dist::RunResult partial =
        engine.run(halted, halt_options, halted_rng);
    check_schedule_state(halted, report, JobsPlaced::kSome);
    if (partial.halted) {
      std::stringstream bytes;
      checkpoint.save(bytes);
      const dist::Checkpoint restored = dist::Checkpoint::load(bytes);
      Schedule resumed = restored.make_schedule(instance);
      dist::EngineOptions resume_options = options;
      resume_options.resume = &restored;
      stats::Rng resume_rng =
          stats::Rng::stream(context.seed, context.index * 8 + 2);
      const dist::RunResult finished =
          engine.run(resumed, resume_options, resume_rng);
      check_schedule_state(resumed, report, JobsPlaced::kSome);
      if (resumed.fingerprint() != schedule.fingerprint() ||
          finished.to_json().dump() != result.to_json().dump()) {
        report.fail("churn.checkpoint_equivalence",
                    "restore-then-run diverged from the uninterrupted run");
      }
    }
  }

  // The parallel engine must uphold the same conservation law under the
  // same plan (null pool: bitwise identical to any thread count).
  const dist::ParallelExchangeEngine parallel(kernel, selector);
  dist::ParallelEngineOptions par_options;
  par_options.max_exchanges = 16 * instance.num_machines();
  par_options.churn = &plan;
  Schedule par_schedule(instance, initial);
  const dist::ParallelRunResult par_result =
      parallel.run(par_schedule, par_options, churn_seed);
  check_churn_conservation(par_schedule, par_result, report);
}

/// Open-system fuzzing: on cases carrying a non-trivial ArrivalPlan, run
/// the event-driven engine with background repair and assert job
/// conservation and response sanity; then pin the determinism contract by
/// demanding (a) the parallel-repair run reproduce the sequential-repair
/// report byte for byte, and (b) a halt / checkpoint-roundtrip / resume
/// split reproduce the uninterrupted run byte for byte. The schedule halted
/// mid-run passes the state oracle.
void check_open_system(const Instance& instance, const CaseContext& context,
                       Report& report, SuiteSummary* summary) {
  if (context.arrivals == nullptr || context.arrivals->trivial()) return;
  if (instance.num_machines() < 2) return;

  const pairwise::PairKernel& kernel = kernel_for(instance);
  const dist::UniformPeerSelector selector;
  const dist::OpenSystemEngine engine(kernel, selector);
  const std::uint64_t open_seed =
      context.seed ^ (context.index * 0x0BE11E5ULL + 11);

  dist::OpenSystemOptions options;
  options.arrivals = context.arrivals;
  // One burst every ~half a mean service time, small budget: enough for
  // repair to actually fire on these small cases without dominating.
  options.repair_every = 25.0;
  options.repair_budget = 8;
  options.realize_service = instance.has_cost_model();
  options.record_trace = true;

  Schedule schedule(instance);
  const dist::OpenRunReport result = engine.run(schedule, options, open_seed);
  if (summary != nullptr) ++summary->open_runs;
  check_open_conservation(result, schedule, report);
  check_open_response_sanity(result, report);

  const std::string result_json = result.to_json().dump();

  // Same seed, same bytes: what --seed replay and the shrinker rely on.
  Schedule replay(instance);
  const dist::OpenRunReport again = engine.run(replay, options, open_seed);
  if (replay.fingerprint() != schedule.fingerprint() ||
      again.to_json().dump() != result_json) {
    report.fail("diff.open_determinism",
                "two open-system runs with the same seed diverged");
  }

  // Parallel repair draws one derived seed per burst, so its report must
  // not depend on the thread count: inline (null pool) == 3 workers.
  dist::OpenSystemOptions par_options = options;
  par_options.parallel_repair = true;
  Schedule par_schedule(instance);
  const dist::OpenRunReport par_result =
      engine.run(par_schedule, par_options, open_seed);
  check_open_conservation(par_result, par_schedule, report);
  parallel::ThreadPool pool(3);
  dist::OpenSystemOptions pooled_options = par_options;
  pooled_options.pool = &pool;
  Schedule pooled_schedule(instance);
  const dist::OpenRunReport pooled_result =
      engine.run(pooled_schedule, pooled_options, open_seed);
  if (pooled_schedule.fingerprint() != par_schedule.fingerprint() ||
      pooled_result.to_json().dump() != par_result.to_json().dump() ||
      pooled_result.trace != par_result.trace) {
    report.fail("open.repair_thread_invariance",
                "parallel-repair run changed bytes between the inline and "
                "the 3-thread pool execution");
  }

  // Interrupted == uninterrupted, through the text checkpoint format.
  if (result.events > 1) {
    dist::OpenCheckpoint checkpoint;
    dist::OpenSystemOptions halt_options = options;
    halt_options.halt_after_events = result.events / 2;
    halt_options.checkpoint_out = &checkpoint;
    Schedule halted(instance);
    const dist::OpenRunReport partial =
        engine.run(halted, halt_options, open_seed);
    // Mid-run, rows the repair kernels wrote still hold waiting jobs.
    check_schedule_state(halted, report, JobsPlaced::kSome);
    if (partial.halted) {
      std::stringstream bytes;
      checkpoint.save(bytes);
      const dist::OpenCheckpoint restored = dist::OpenCheckpoint::load(bytes);
      Schedule resumed = restored.make_schedule(instance);
      dist::OpenSystemOptions resume_options = options;
      resume_options.resume = &restored;
      const dist::OpenRunReport finished =
          engine.run(resumed, resume_options, open_seed);
      if (resumed.fingerprint() != schedule.fingerprint() ||
          finished.to_json().dump() != result_json) {
        report.fail("open.checkpoint_equivalence",
                    "restore-then-run diverged from the uninterrupted run");
      }
    }
  }
}

void check_async(const Instance& instance, const Assignment& initial,
                 const CaseContext& context, Report& report,
                 SuiteSummary* summary) {
  if (instance.num_machines() < 2) return;
  const pairwise::PairKernel& kernel = kernel_for(instance);

  dist::AsyncOptions options;
  options.duration = 30.0;
  options.seed = context.seed ^ (context.index * 0x9E3779B97F4A7C15ULL);
  options.fault_plan = context.fault_plan;
  // Timeouts keep the protocol live under drops; without faults stay on
  // the timer-free path (byte-identical to the pre-fault event stream).
  if (context.fault_plan != nullptr) options.session_timeout = 3.0;

  Schedule schedule(instance, initial);
  const dist::AsyncRunResult result =
      dist::run_async(schedule, kernel, options);
  if (summary != nullptr) {
    ++summary->async_runs;
    summary->faults.dropped += result.faults.dropped;
    summary->faults.delayed += result.faults.delayed;
    summary->faults.duplicated += result.faults.duplicated;
    summary->faults.reordered += result.faults.reordered;
  }

  check_async_result(result, schedule, options, report);
  if (context.fault_plan != nullptr) {
    // The fault-tolerance claim: whatever the network does, the protocol
    // terminates with every job still placed exactly once.
    std::string why;
    if (!is_complete_partition(schedule, &why)) {
      report.fail("fault.job_conservation", why);
    }
  }

  // Async runs must also replay deterministically from their seed, faults
  // included (the plan draws from its own seeded stream).
  Schedule replay(instance, initial);
  const dist::AsyncRunResult again =
      dist::run_async(replay, kernel, options);
  if (replay.fingerprint() != schedule.fingerprint() ||
      again.messages != result.messages ||
      again.exchanges != result.exchanges ||
      again.faults.total() != result.faults.total()) {
    report.fail("diff.async_determinism",
                "two async runs with the same seed diverged");
  }
}

void check_exact(const Instance& instance, const Assignment& initial,
                 Report& report, SuiteSummary* summary) {
  if (instance.num_jobs() == 0 || instance.num_jobs() > 7 ||
      instance.num_machines() > 4) {
    return;
  }
  centralized::ExactOptions exact_options;
  exact_options.node_limit = kExactNodeLimit;
  const centralized::ExactResult exact =
      centralized::solve_exact(instance, exact_options);
  if (!exact.proven) return;
  if (summary != nullptr) ++summary->exact_solved;
  const Cost opt = exact.optimal;

  check_lower_bounds_vs_opt(instance, opt, report);

  if (two_populated_clusters(instance)) {
    check_clb2c_two_approx(instance, opt, report);
    Schedule stable(instance, initial);
    if (dist::run_to_stability(stable, pairwise::kernel_registry().get("dlb2c"),
                               64)) {
      check_stable_two_approx(stable, opt, report);
    }
  }
  if (instance.has_job_types()) {
    Schedule stable(instance, initial);
    if (dist::run_to_stability(
            stable, pairwise::kernel_registry().get("typed-greedy"), 64)) {
      check_stable_mjtb_bound(stable, report);
      if (instance.num_job_types() == 1) {
        check_stable_single_type_optimal(stable, report);
      }
    }
  }
}

net::FaultPlan plan_for_case(const SuiteOptions& options,
                             std::uint64_t index) {
  const std::uint64_t plan_seed = options.seed ^ (index * 0xFA17u + 1);
  if (options.faults == "rotate") {
    static const char* kRotation[6] = {"none",      "drop",    "delay",
                                       "duplicate", "reorder", "chaos"};
    return net::fault_plan_by_name(kRotation[index % 6], options.fault_p,
                                   plan_seed);
  }
  return net::fault_plan_by_name(options.faults, options.fault_p, plan_seed);
}

std::string sanitized(const std::string& name) {
  std::string out = name;
  std::replace(out.begin(), out.end(), '/', '_');
  return out;
}

}  // namespace

void run_case_oracles(const Instance& instance, const Assignment& initial,
                      const CaseContext& context, Report& report,
                      SuiteSummary* summary) {
  check_io_roundtrip(instance, initial, report);

  Schedule schedule(instance, initial);
  check_schedule_state(schedule, report);
  check_lower_bound_soundness(instance, schedule.makespan(), report);

  stats::Rng pair_rng = stats::Rng::stream(context.seed, context.index * 8);
  check_kernels(schedule, pair_rng, report);

  check_engine(instance, initial, context, report, summary);
  check_churn(instance, initial, context, report, summary);
  check_open_system(instance, context, report, summary);
  check_async(instance, initial, context, report, summary);
  check_exact(instance, initial, report, summary);

  // Stochastic oracles. Zero-variance equivalence runs on *every* case —
  // it attaches its own degenerate model — while the quantile and
  // realization oracles only bite when the case carries real variance.
  check_zero_variance_equivalence(
      instance, initial, context.seed + context.index * 8 + 3, report);
  if (instance.has_cost_model()) {
    check_quantile_monotonicity(schedule, report);
    check_realization_consistency(
        instance, initial, context.seed + context.index * 8 + 5, report);
    if (summary != nullptr && !instance.cost_model().all_degenerate()) {
      ++summary->stochastic_cases;
    }
  }
}

SuiteSummary run_suite(const SuiteOptions& options) {
  SuiteSummary summary;
  for (std::uint64_t index = 0; index < options.cases; ++index) {
    GeneratedCase test_case =
        options.regime.has_value()
            ? make_case(options.seed, index, *options.regime)
            : make_case(options.seed, index);
    const net::FaultPlan plan = plan_for_case(options, index);
    CaseContext context;
    context.seed = options.seed;
    context.index = index;
    context.fault_plan = plan.trivial() ? nullptr : &plan;
    context.arrivals =
        test_case.arrivals.trivial() ? nullptr : &test_case.arrivals;

    Report report;
    run_case_oracles(test_case.instance, test_case.initial, context, report,
                     &summary);
    ++summary.cases_run;
    if (report.ok()) continue;

    CaseFailure failure;
    failure.index = index;
    failure.name = test_case.name;
    failure.report = report.to_string();

    Instance culprit = test_case.instance;
    Assignment culprit_initial = test_case.initial;
    if (options.shrink_failures) {
      const ShrinkResult shrunk = shrink(
          test_case.instance, test_case.initial,
          [&](const Instance& candidate, const Assignment& start) {
            Report candidate_report;
            run_case_oracles(candidate, start, context, candidate_report,
                             nullptr);
            return candidate_report.ok();
          });
      culprit = shrunk.instance;
      culprit_initial = shrunk.initial;
      // Re-diagnose on the minimized case so the report names it.
      Report shrunk_report;
      run_case_oracles(culprit, culprit_initial, context, shrunk_report,
                       nullptr);
      if (!shrunk_report.ok()) failure.report = shrunk_report.to_string();
    }
    failure.shrunk_jobs = culprit.num_jobs();
    failure.shrunk_machines = culprit.num_machines();

    if (!options.dump_dir.empty()) {
      const std::string stem =
          options.dump_dir + "/" + sanitized(test_case.name);
      io::save_instance_file(culprit, stem + ".instance");
      std::ofstream out(stem + ".assignment");
      io::save_assignment(culprit_initial, out);
      // Open-regime failures also need their arrival process to replay;
      // dlb_check replay picks the sidecar up by extension.
      if (context.arrivals != nullptr) {
        context.arrivals->save_file(stem + ".arrivals");
      }
      failure.repro_path = stem + ".instance";
    }
    summary.failures.push_back(std::move(failure));
    if (summary.failures.size() >= options.max_failures) break;
  }
  return summary;
}

}  // namespace dlb::check
