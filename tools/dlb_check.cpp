// dlb_check: the property-based correctness harness. Generates seeded
// random instances across every cost regime, runs the full oracle battery
// (structural invariants, kernel contracts, convergence detection, network
// fault tolerance, and the paper's approximation theorems against exact
// optima), shrinks whatever fails, and exits non-zero with a replayable
// reproducer. CI runs `dlb_check --cases 10000 --seed 42` as the fuzz
// gate; see docs/testing.md for the full workflow.

#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "check/case_gen.hpp"
#include "check/suite.hpp"
#include "cli/args.hpp"
#include "core/instance_io.hpp"
#include "core/instance_store.hpp"
#include "dist/open_system/arrival.hpp"

namespace {

constexpr const char* kUsage = R"(usage: dlb_check [options]
       dlb_check replay FILE... [--seed S] [--index I] [--faults NAME]

Property-based correctness harness: seeded random instances across every
cost regime, checked against the library's invariant oracles.

The replay form runs the full oracle battery on saved reproducer files
instead of generated cases: each FILE is a .inst/.instance dump; a
sibling .assign/.assignment file supplies the initial placement (falling
back to round-robin) and a sibling .arrivals file restores the
open-system arrival plan. tests/corpus/ holds the regression corpus.

options:
  --cases N          number of generated cases (default 1000)
  --seed S           base seed; every case derives from it (default 42)
  --regime NAME      pin one regime: identical | related | two_cluster |
                     multi_cluster | unrelated | typed | single_type |
                     extreme_ratio | degenerate | stochastic_normal |
                     stochastic_lognormal | stochastic_pareto |
                     open_poisson | open_bursty
                     (default: cycle through all)
  --faults NAME      fault plan for async runs: rotate | none | drop |
                     delay | duplicate | reorder | chaos (default rotate)
  --fault-p P        per-message fault probability (default 0.15)
  --no-shrink        report failures without minimizing them
  --dump DIR         write failing cases to DIR as replayable
                     .instance/.assignment files
  --max-failures N   stop after N failing cases (default 10)
  --verbose          print a progress line every 1000 cases
)";

/// The reproducer path with its instance extension trimmed, for locating
/// sidecar files.
std::string stem_of(std::string path) {
  for (const char* ext : {".instance", ".inst"}) {
    const std::string suffix(ext);
    if (path.size() > suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      path.resize(path.size() - suffix.size());
      break;
    }
  }
  return path;
}

/// The companion assignment for a reproducer: the same stem with the
/// matching assignment extension, or round-robin when no such file exists.
dlb::Assignment initial_for(const std::string& instance_path,
                            const dlb::Instance& instance) {
  const std::string stem = stem_of(instance_path);
  for (const char* ext : {".assignment", ".assign"}) {
    std::ifstream in(stem + ext);
    if (in) return dlb::io::load_assignment(in);
  }
  return dlb::Assignment::round_robin(instance.num_jobs(),
                                      instance.num_machines());
}

/// The companion arrival plan (open-regime reproducers); trivial when the
/// sidecar file does not exist.
dlb::dist::ArrivalPlan arrivals_for(const std::string& instance_path) {
  std::ifstream in(stem_of(instance_path) + ".arrivals");
  if (!in) return dlb::dist::ArrivalPlan{};
  return dlb::dist::ArrivalPlan::load(in);
}

/// `dlb_check replay FILE...`: the regression-corpus gate. Every saved
/// reproducer must pass the battery it once failed.
int run_replay(const std::vector<std::string>& tokens) {
  std::vector<std::string> files;
  std::vector<std::string> flags;
  for (const std::string& token : tokens) {
    (token.rfind("--", 0) == 0 || !flags.empty() ? flags : files)
        .push_back(token);
  }
  const dlb::cli::Args args = dlb::cli::Args::parse(flags);
  if (files.empty()) {
    std::cerr << "dlb_check replay: no reproducer files given\n" << kUsage;
    return 2;
  }

  dlb::check::CaseContext context;
  context.seed = args.get_count("seed", 42);
  context.index = args.get_count("index", 0);
  const std::string fault_name = args.get("faults", "none");
  const dlb::net::FaultPlan plan = dlb::net::fault_plan_by_name(
      fault_name, args.get_double("fault-p", 0.15), context.seed ^ 0xFA17u);
  if (!plan.trivial()) context.fault_plan = &plan;
  for (const std::string& key : args.unused()) {
    std::cerr << "dlb_check replay: unknown option --" << key << "\n"
              << kUsage;
    return 2;
  }

  int failures = 0;
  for (const std::string& path : files) {
    const dlb::core::InstanceStore store = dlb::core::load_instance(path);
    const dlb::Instance& instance = store.instance();
    // A .dlbi reproducer can embed its initial assignment; sidecar
    // .assignment files keep working for text cases.
    const dlb::Assignment initial = store.has_initial_assignment()
                                        ? store.initial_assignment()
                                        : initial_for(path, instance);
    const dlb::dist::ArrivalPlan arrivals = arrivals_for(path);
    dlb::check::CaseContext case_context = context;
    case_context.arrivals = arrivals.trivial() ? nullptr : &arrivals;
    dlb::check::Report report;
    dlb::check::run_case_oracles(instance, initial, case_context, report,
                                 nullptr);
    if (report.ok()) {
      std::cout << "PASS " << path << "\n";
    } else {
      ++failures;
      std::cout << "FAIL " << path << "\n" << report.to_string();
    }
  }
  std::cout << "dlb_check replay: " << files.size() - failures << "/"
            << files.size() << " reproducers passed\n";
  return failures == 0 ? 0 : 1;
}

int run(const dlb::cli::Args& args) {
  dlb::check::SuiteOptions options;
  options.cases = args.get_count("cases", 1000);
  options.seed = args.get_count("seed", 42);
  options.faults = args.get("faults", "rotate");
  options.fault_p = args.get_double("fault-p", 0.15);
  options.shrink_failures = !args.has("no-shrink");
  options.dump_dir = args.get("dump", "");
  options.max_failures = args.get_count("max-failures", 10);
  const bool verbose = args.has("verbose");
  const std::string regime = args.get("regime", "");
  if (!regime.empty()) {
    options.regime = dlb::check::regime_by_name(regime);
  }
  for (const std::string& key : args.unused()) {
    std::cerr << "dlb_check: unknown option --" << key << "\n" << kUsage;
    return 2;
  }

  if (verbose) {
    std::cout << "dlb_check: " << options.cases << " cases, seed "
              << options.seed << ", faults " << options.faults << "\n";
  }
  const dlb::check::SuiteSummary summary = dlb::check::run_suite(options);

  std::cout << "dlb_check: " << summary.cases_run << " cases ("
            << summary.exact_solved << " vs exact OPT, "
            << summary.engine_runs << " engine runs, " << summary.churn_runs
            << " churn runs, " << summary.open_runs << " open runs, "
            << summary.async_runs << " async runs, "
            << summary.stochastic_cases << " stochastic cases)\n"
            << "dlb_check: injected faults: " << summary.faults.dropped
            << " dropped, " << summary.faults.delayed << " delayed, "
            << summary.faults.duplicated << " duplicated, "
            << summary.faults.reordered << " reordered\n";

  if (summary.ok()) {
    std::cout << "dlb_check: all oracles passed\n";
    return 0;
  }
  for (const dlb::check::CaseFailure& failure : summary.failures) {
    std::cout << "\nFAIL " << failure.name << " (replay: --seed "
              << options.seed << " plus case index " << failure.index
              << "; shrunk to " << failure.shrunk_jobs << " jobs / "
              << failure.shrunk_machines << " machines)\n"
              << failure.report;
    if (!failure.repro_path.empty()) {
      std::cout << "repro written to " << failure.repro_path << "\n";
    }
  }
  std::cout << "\ndlb_check: " << summary.failures.size()
            << " failing case(s)\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> tokens(argv + 1, argv + argc);
  if (!tokens.empty() && (tokens[0] == "help" || tokens[0] == "--help")) {
    std::cout << kUsage;
    return 0;
  }
  try {
    if (!tokens.empty() && tokens[0] == "replay") {
      return run_replay({tokens.begin() + 1, tokens.end()});
    }
    return run(dlb::cli::Args::parse(tokens));
  } catch (const std::exception& e) {
    std::cerr << "dlb_check: " << e.what() << "\n" << kUsage;
    return 2;
  }
}
