#include "cli/commands.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "centralized/clb2c.hpp"
#include "centralized/ect.hpp"
#include "centralized/exact_bnb.hpp"
#include "centralized/lenstra.hpp"
#include "centralized/list_scheduling.hpp"
#include "centralized/lpt.hpp"
#include "centralized/min_min.hpp"
#include "cli/args.hpp"
#include "core/cost_model.hpp"
#include "core/generators.hpp"
#include "core/instance_io.hpp"
#include "core/instance_store.hpp"
#include "core/lower_bounds.hpp"
#include "core/validation.hpp"
#include "dist/async_runner.hpp"
#include "dist/checkpoint.hpp"
#include "dist/churn.hpp"
#include "dist/exchange_engine.hpp"
#include "dist/open_system/open_engine.hpp"
#include "dist/parallel_exchange_engine.hpp"
#include "dist/selector_registry.hpp"
#include "dist/transport_runner.hpp"
#include "markov/makespan_pdf.hpp"
#include "net/transport.hpp"
#include "obs/aggregate.hpp"
#include "obs/obs.hpp"
#include "obs/trace_merge.hpp"
#include "pairwise/kernel_registry.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/ascii_plot.hpp"
#include "stats/csv.hpp"
#include "stats/table.hpp"

namespace dlb::cli {

namespace {

int usage_error(std::ostream& err, const std::string& message) {
  err << "dlbsim: " << message << "\n" << usage();
  return 2;
}

int check_unused(const Args& args, std::ostream& err) {
  const auto unused = args.unused();
  if (unused.empty()) return 0;
  std::string message = "unknown option(s):";
  for (const auto& key : unused) message += " --" + key;
  return usage_error(err, message);
}

// ----- gen -----

int cmd_gen(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string kind = args.get("kind", "two-cluster");
  const auto jobs = static_cast<std::size_t>(args.get_int("jobs", 768));
  const Cost lo = args.get_double("lo", 1.0);
  const Cost hi = args.get_double("hi", 1000.0);
  const std::uint64_t seed = args.get_seed("seed", 1);
  const std::string path = args.require("out");

  Instance instance = [&]() -> Instance {
    if (kind == "two-cluster") {
      const auto m1 = static_cast<std::size_t>(args.get_int("m1", 64));
      const auto m2 = static_cast<std::size_t>(args.get_int("m2", 32));
      return gen::two_cluster_uniform(m1, m2, jobs, lo, hi, seed);
    }
    if (kind == "identical") {
      const auto m = static_cast<std::size_t>(args.get_int("m", 96));
      return gen::identical_uniform(m, jobs, lo, hi, seed);
    }
    if (kind == "unrelated") {
      const auto m = static_cast<std::size_t>(args.get_int("m", 16));
      return gen::uniform_unrelated(m, jobs, lo, hi, seed);
    }
    if (kind == "typed") {
      const auto m = static_cast<std::size_t>(args.get_int("m", 16));
      const auto types = static_cast<std::size_t>(args.get_int("types", 4));
      return gen::typed_uniform(m, jobs, types, lo, hi, seed);
    }
    if (kind == "multi") {
      // --sizes 16,8,4 -> three clusters.
      const std::string sizes_text = args.get("sizes", "16,16");
      std::vector<std::size_t> sizes;
      std::size_t begin = 0;
      while (begin <= sizes_text.size()) {
        const std::size_t comma = sizes_text.find(',', begin);
        const std::string part =
            sizes_text.substr(begin, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - begin);
        try {
          const long value = std::stol(part);
          if (value <= 0) throw std::invalid_argument("nonpositive");
          sizes.push_back(static_cast<std::size_t>(value));
        } catch (const std::exception&) {
          throw std::invalid_argument("--sizes expects a comma-separated "
                                      "list of positive integers");
        }
        if (comma == std::string::npos) break;
        begin = comma + 1;
      }
      return gen::multi_cluster_uniform(sizes, jobs, lo, hi, seed);
    }
    throw std::invalid_argument(
        "unknown --kind '" + kind +
        "' (two-cluster|identical|unrelated|typed|multi)");
  }();
  if (const int rc = check_unused(args, err)) return rc;

  // Extension picks the format: `.dlbi` writes the mmap-able binary,
  // anything else the text format.
  core::save_instance_auto(instance, path);
  out << "wrote " << path << ": " << instance.num_machines() << " machines ("
      << instance.num_groups() << " groups), " << instance.num_jobs()
      << " jobs\n";
  return 0;
}

// ----- convert -----

int cmd_convert(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string in_path = args.require("in");
  const std::string out_path = args.require("out");
  const std::string to = args.get("to", "auto");
  if (const int rc = check_unused(args, err)) return rc;

  const core::InstanceStore store = core::load_instance(in_path);
  const Instance& instance = store.instance();
  bool binary = false;
  if (to == "auto") {
    core::save_instance_auto(instance, out_path);
    binary = out_path.size() >= 5 &&
             out_path.compare(out_path.size() - 5, 5, ".dlbi") == 0;
  } else if (to == "text") {
    io::save_instance_file(instance, out_path);
  } else if (to == "binary") {
    core::save_dlbi(instance, out_path);
    binary = true;
  } else {
    throw std::invalid_argument("--to expects auto|text|binary, got '" + to +
                                "'");
  }
  out << "wrote " << out_path << " (" << (binary ? "binary" : "text")
      << "): " << instance.num_machines() << " machines ("
      << instance.num_groups() << " groups), " << instance.num_jobs()
      << " jobs\n";
  return 0;
}

// ----- info -----

int cmd_info(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string path = args.require("in");
  if (const int rc = check_unused(args, err)) return rc;
  const core::InstanceStore store = core::load_instance(path);
  const Instance& instance = store.instance();
  out << "machines      : " << instance.num_machines() << "\n"
      << "groups        : " << instance.num_groups() << "\n"
      << "jobs          : " << instance.num_jobs() << "\n"
      << "job types     : "
      << (instance.has_job_types() ? std::to_string(instance.num_job_types())
                                   : std::string("(undeclared)"))
      << "\n"
      << "max cost      : " << instance.max_cost() << "\n"
      << "LB max-min    : " << max_min_cost_bound(instance) << "\n"
      << "LB min-work   : " << min_work_bound(instance) << "\n";
  if (instance.num_groups() == 2 && instance.unit_scales()) {
    out << "LB fractional : " << two_cluster_fractional_opt(instance) << "\n";
  }
  return 0;
}

// ----- solve -----

int cmd_solve(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string path = args.require("in");
  const std::string alg = args.get("alg", "ect");
  if (const int rc = check_unused(args, err)) return rc;
  const core::InstanceStore store = core::load_instance(path);
  const Instance& instance = store.instance();

  const std::map<std::string, std::function<Schedule()>> algorithms = {
      {"list", [&] { return centralized::list_schedule(instance); }},
      {"lpt", [&] { return centralized::lpt_schedule(instance); }},
      {"ect", [&] { return centralized::ect_schedule(instance); }},
      {"minmin", [&] { return centralized::min_min_schedule(instance); }},
      {"maxmin", [&] { return centralized::max_min_schedule(instance); }},
      {"sufferage",
       [&] { return centralized::sufferage_schedule(instance); }},
      {"clb2c", [&] { return centralized::clb2c_schedule(instance); }},
      {"lenstra",
       [&] { return centralized::lenstra_schedule(instance).schedule; }},
      {"exact",
       [&] {
         const auto result = centralized::solve_exact(instance);
         return Schedule(instance, result.assignment);
       }},
  };
  const auto it = algorithms.find(alg);
  if (it == algorithms.end()) {
    return usage_error(err, "unknown --alg '" + alg + "'");
  }
  const Schedule schedule = it->second();
  validate_complete(schedule);
  const Cost lb = makespan_lower_bound(instance);
  out << "algorithm : " << alg << "\n"
      << "makespan  : " << schedule.makespan() << "\n"
      << "LB        : " << lb << "\n"
      << "factor    : " << schedule.makespan() / lb << "\n";
  return 0;
}

// ----- balance / simulate shared observability plumbing -----

/// Owns the sinks behind --trace-json / --metrics-json / --flight-json
/// for one command invocation and writes the requested files afterwards.
struct ObsFiles {
  std::string trace_path;
  std::string metrics_path;
  std::string flight_path;
  obs::Metrics metrics;
  obs::Tracer tracer;
  obs::FlightRecorder flight;
  obs::Context context;

  ObsFiles(const Args& args, const char* trace_key, const char* metrics_key)
      : trace_path(args.get(trace_key, "")),
        metrics_path(args.get(metrics_key, "")),
        flight_path(args.get("flight-json", "")) {
    if (!trace_path.empty()) context.tracer = &tracer;
    if (!flight_path.empty()) context.flight = &flight;
    if (!metrics_path.empty() || !trace_path.empty() ||
        !flight_path.empty()) {
      context.metrics = &metrics;
    }
  }

  [[nodiscard]] bool enabled() const noexcept {
    return context.metrics != nullptr || context.tracer != nullptr ||
           context.flight != nullptr;
  }

  /// Writes the requested files; returns 0 or an exit code on I/O failure.
  int write(std::ostream& out, std::ostream& err) const {
    if (!trace_path.empty()) {
      std::ofstream file(trace_path);
      if (!file) {
        err << "dlbsim: cannot write " << trace_path << "\n";
        return 1;
      }
      file << tracer.to_chrome_json().dump(2) << "\n";
      out << "trace-json      : " << trace_path << " (" << tracer.size()
          << " events";
      if (tracer.dropped() > 0) out << ", " << tracer.dropped() << " dropped";
      out << ")\n";
    }
    if (!metrics_path.empty()) {
      std::ofstream file(metrics_path);
      if (!file) {
        err << "dlbsim: cannot write " << metrics_path << "\n";
        return 1;
      }
      file << metrics.snapshot().dump(2) << "\n";
      out << "metrics-json    : " << metrics_path << "\n";
    }
    if (!flight_path.empty()) {
      std::ofstream file(flight_path);
      if (!file) {
        err << "dlbsim: cannot write " << flight_path << "\n";
        return 1;
      }
      file << flight.to_json().dump(2) << "\n";
      out << "flight-json     : " << flight_path << " (" << flight.size()
          << " samples";
      if (flight.dropped() > 0) out << ", " << flight.dropped() << " dropped";
      out << ")\n";
    }
    return 0;
  }
};

/// Third trace-CSV column: per-exchange it is the changed flag, per-epoch
/// the number of committed sessions.
std::string row_detail(const dist::ExchangeTracePoint& point) {
  return point.changed ? "1" : "0";
}
std::string row_detail(const dist::EpochTracePoint& point) {
  return std::to_string(point.sessions);
}

/// Resolves --alg against the shared kernel registry, keeping the
/// CLI-specific error shape ("unknown --alg ...") the scripts grep for.
const pairwise::PairKernel& kernel_by_alg(const std::string& alg) {
  const pairwise::KernelRegistry& registry = pairwise::kernel_registry();
  if (!registry.contains(alg)) {
    throw std::invalid_argument("unknown --alg '" + alg + "' (" +
                                registry.names_joined() + ")");
  }
  return registry.get(alg);
}

/// Resolves --peer against the shared selector registry.
const dist::PeerSelector& selector_by_name(const std::string& name) {
  const dist::SelectorRegistry& registry = dist::selector_registry();
  if (!registry.contains(name)) {
    throw std::invalid_argument("unknown --peer '" + name + "' (" +
                                registry.names_joined() + ")");
  }
  return registry.get(name);
}

// ----- balance -----

int cmd_balance(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string path = args.require("in");
  const std::string alg = args.get("alg", "dlb2c");
  const std::string peer = args.get("peer", "uniform");
  const std::string engine_kind = args.get("engine", "seq");
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 0));
  const std::uint64_t seed = args.get_seed("seed", 1);
  const auto per_machine = args.get_int("exchanges-per-machine", 10);
  const std::string trace_path = args.get("trace", "");
  const std::string cost_model_spec = args.get("cost-model", "");
  const std::string churn_path = args.get("churn-plan", "");
  const auto checkpoint_every =
      static_cast<std::uint64_t>(args.get_int("checkpoint-every", 0));
  const std::string checkpoint_path = args.get("checkpoint", "");
  const std::string resume_path = args.get("resume", "");
  ObsFiles obs_files(args, "trace-json", "metrics-json");
  if (const int rc = check_unused(args, err)) return rc;
  if (engine_kind != "seq" && engine_kind != "parallel") {
    throw std::invalid_argument("unknown --engine '" + engine_kind +
                                "' (seq|parallel)");
  }
  if (checkpoint_every != 0 && checkpoint_path.empty()) {
    throw std::invalid_argument(
        "--checkpoint-every needs --checkpoint FILE to write to");
  }

  const pairwise::PairKernel& kernel = kernel_by_alg(alg);
  const dist::PeerSelector& selector = selector_by_name(peer);
  core::InstanceStore store = core::load_instance(path);
  Instance& instance = store.mutable_instance();
  // --cost-model SPEC attaches one size distribution to every job (the
  // instance file's own `costmodel` line, if any, is replaced). The risk
  // kernels (--alg *_q95 / *_effsize) and selectors read it; with a
  // degenerate spec (det:V, sigma 0, ...) every engine's output is
  // byte-identical to a run without it.
  if (!cost_model_spec.empty()) {
    const cost::Dist dist = [&] {
      try {
        return cost::parse_dist(cost_model_spec);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string("--cost-model: ") + e.what());
      }
    }();
    instance.set_cost_model(cost::CostModel(
        std::vector<cost::Dist>(instance.num_jobs(), dist)));
  }

  // Elasticity: an on-disk churn plan drives joins/drains/crashes, and a
  // resumed run rebuilds its schedule from the checkpoint instead of the
  // seeded random placement (the engines guarantee the finished run is
  // bitwise identical to one that never stopped).
  std::optional<dist::ChurnPlan> churn_plan;
  if (!churn_path.empty()) {
    churn_plan = dist::ChurnPlan::load_file(churn_path);
  }
  std::optional<dist::Checkpoint> resume_from;
  if (!resume_path.empty()) {
    resume_from = dist::Checkpoint::load_file(resume_path);
  }
  dist::Checkpoint snapshot;

  Schedule schedule =
      resume_from.has_value()
          ? resume_from->make_schedule(instance)
          : Schedule(instance, gen::random_assignment(instance, seed));
  const Cost lb = makespan_lower_bound(instance);

  const auto describe_elasticity = [&] {
    if (churn_plan.has_value()) {
      out << "churn plan      : " << churn_path << " ("
          << churn_plan->events.size() << " events)\n";
    }
    if (resume_from.has_value()) {
      out << "resumed from    : " << resume_path << " (epoch "
          << resume_from->epochs << ")\n";
    }
  };
  // A snapshot was taken iff the engine filled it (cadence hit at least
  // one epoch boundary); a default-constructed Checkpoint has no machines.
  const auto write_snapshot = [&]() -> int {
    if (checkpoint_path.empty()) return 0;
    if (snapshot.num_machines == 0) {
      out << "checkpoint      : not taken (run ended before epoch "
          << checkpoint_every << ")\n";
      return 0;
    }
    snapshot.save_file(checkpoint_path);
    out << "checkpoint      : " << checkpoint_path << " (epoch "
        << snapshot.epochs << ")\n";
    return 0;
  };

  const auto write_trace = [&](const char* kind, const char* detail_col,
                               const auto& rows) -> int {
    std::ofstream trace(trace_path);
    if (!trace) {
      err << "dlbsim: cannot write " << trace_path << "\n";
      return 1;
    }
    stats::CsvWriter csv(trace);
    // The first two columns are the original format; the detail column and
    // `migrations` (cumulative job moves) are appended so old scripts keep
    // parsing and Figure 4/5-style analyses get the per-row detail. The
    // parallel engine only has epoch-granular state, so its trace is per
    // epoch with the session count in place of `changed`.
    csv.header({kind, "makespan", detail_col, "migrations"});
    for (std::size_t x = 0; x < rows.size(); ++x) {
      csv.row({stats::CsvWriter::num(x + 1),
               stats::CsvWriter::num(rows[x].makespan), row_detail(rows[x]),
               stats::CsvWriter::num(
                   static_cast<std::size_t>(rows[x].migrations))});
    }
    out << "trace written   : " << trace_path << " (" << rows.size()
        << " rows)\n";
    return 0;
  };

  // One options block serves both engines; the parallel one adds a pool.
  dist::ParallelEngineOptions options;
  options.max_exchanges = instance.num_machines() * per_machine;
  options.record_trace = !trace_path.empty();
  if (obs_files.enabled()) options.obs = &obs_files.context;
  if (churn_plan.has_value()) options.churn = &*churn_plan;
  if (resume_from.has_value()) options.resume = &*resume_from;
  if (checkpoint_every != 0) {
    options.checkpoint_every = checkpoint_every;
    options.checkpoint_out = &snapshot;
  }

  if (engine_kind == "parallel") {
    parallel::ThreadPool pool(threads);
    options.pool = &pool;
    const dist::ParallelExchangeEngine engine(kernel, selector);
    const dist::ParallelRunResult result =
        engine.run(schedule, options, seed + 1);

    out << "algorithm       : " << alg << " (parallel, "
        << pool.num_threads() << " threads)\n";
    describe_elasticity();
    result.print(out);
    out << "effective       : " << result.changed_exchanges << "\n"
        << "epochs          : " << result.epochs << " ("
        << result.conflicts << " conflicts, " << result.peer_retries
        << " peer retries)\n"
        << "LB              : " << lb << "\n"
        << "final factor    : " << result.final_makespan / lb << "\n";
    if (!trace_path.empty()) {
      if (const int rc =
              write_trace("epoch", "sessions", result.epoch_trace)) {
        return rc;
      }
    }
    if (const int rc = write_snapshot()) return rc;
    return obs_files.write(out, err);
  }

  stats::Rng rng(seed + 1);
  const dist::ExchangeEngine engine(kernel, selector);
  const dist::RunResult result = engine.run(schedule, options, rng);

  out << "algorithm       : " << alg << "\n";
  describe_elasticity();
  result.print(out);
  out << "effective       : " << result.changed_exchanges << "\n"
      << "LB              : " << lb << "\n"
      << "final factor    : " << result.final_makespan / lb << "\n";
  if (!trace_path.empty()) {
    if (const int rc =
            write_trace("exchange", "changed", result.exchange_trace)) {
      return rc;
    }
  }
  if (const int rc = write_snapshot()) return rc;
  return obs_files.write(out, err);
}

// ----- serve -----

/// Parses a --arrivals value: an inline spec — "poisson:RATE",
/// "bursty:RATE,OFF_RATE,ON_DUR,OFF_DUR", "diurnal:R1,R2,...@BIN" — or a
/// path to a saved "dlb-arrival-plan v1" file. The plan seed is the run
/// seed, so `serve` runs are reproducible from the command line alone.
dist::ArrivalPlan arrivals_from_spec(const std::string& spec,
                                     std::uint64_t seed) {
  const auto parse_doubles = [&](const std::string& text, char sep) {
    std::vector<double> values;
    std::size_t begin = 0;
    while (begin <= text.size()) {
      std::size_t end = text.find(sep, begin);
      if (end == std::string::npos) end = text.size();
      const std::string part = text.substr(begin, end - begin);
      std::size_t consumed = 0;
      double value = 0.0;
      try {
        value = std::stod(part, &consumed);
      } catch (const std::exception&) {
        consumed = 0;
      }
      if (consumed != part.size() || part.empty()) {
        throw std::invalid_argument("--arrivals: bad number '" + part +
                                    "' in '" + spec + "'");
      }
      values.push_back(value);
      if (end == text.size()) break;
      begin = end + 1;
    }
    return values;
  };

  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  if (colon != std::string::npos && kind == "poisson") {
    const std::vector<double> v = parse_doubles(spec.substr(colon + 1), ',');
    if (v.size() != 1) {
      throw std::invalid_argument("--arrivals: poisson wants one rate, got '" +
                                  spec + "'");
    }
    return dist::ArrivalPlan::poisson(v[0], seed);
  }
  if (colon != std::string::npos && kind == "bursty") {
    const std::vector<double> v = parse_doubles(spec.substr(colon + 1), ',');
    if (v.size() != 4) {
      throw std::invalid_argument(
          "--arrivals: bursty wants rate,off_rate,on_duration,off_duration, "
          "got '" +
          spec + "'");
    }
    return dist::ArrivalPlan::bursty(v[0], v[1], v[2], v[3], seed);
  }
  if (colon != std::string::npos && kind == "diurnal") {
    const std::string body = spec.substr(colon + 1);
    const auto at = body.find('@');
    if (at == std::string::npos) {
      throw std::invalid_argument(
          "--arrivals: diurnal wants R1,R2,...@BIN_DURATION, got '" + spec +
          "'");
    }
    std::vector<double> trace = parse_doubles(body.substr(0, at), ',');
    const std::vector<double> bin = parse_doubles(body.substr(at + 1), ',');
    if (bin.size() != 1) {
      throw std::invalid_argument(
          "--arrivals: diurnal wants one bin duration after '@' in '" + spec +
          "'");
    }
    return dist::ArrivalPlan::diurnal(std::move(trace), bin[0], seed);
  }
  // Anything else is a saved plan file (dlbsim serve --arrivals plan.arrivals).
  return dist::ArrivalPlan::load_file(spec);
}

/// `dlbsim serve`: the open-system service workload — online arrivals
/// placed by a submission-time policy, FIFO service per machine, and
/// background DLB2C-style repair bursts on a budget (docs/open-system.md).
int cmd_serve(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string path = args.require("in");
  const std::string arrivals_spec = args.require("arrivals");
  const std::string alg = args.get("alg", "dlb2c");
  const std::string peer = args.get("peer", "uniform");
  const std::string placement_spec = args.get("placement", "random");
  const std::uint64_t seed = args.get_seed("seed", 1);
  const auto num_arrivals =
      static_cast<std::size_t>(args.get_int("num-arrivals", 0));
  const double repair_every = args.get_double("repair-every", 0.0);
  const auto repair_budget =
      static_cast<std::size_t>(args.get_int("repair-budget", 16));
  const std::string repair_engine = args.get("repair-engine", "seq");
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 0));
  const bool realize_service = args.has("realize-service");
  const std::string trace_path = args.get("trace", "");
  const auto checkpoint_every = static_cast<std::uint64_t>(
      args.get_int("checkpoint-every-events", 0));
  const auto halt_after =
      static_cast<std::uint64_t>(args.get_int("halt-after-events", 0));
  const std::string checkpoint_path = args.get("checkpoint", "");
  const std::string resume_path = args.get("resume", "");
  ObsFiles obs_files(args, "trace-json", "metrics-json");
  if (const int rc = check_unused(args, err)) return rc;
  if (repair_engine != "seq" && repair_engine != "parallel") {
    throw std::invalid_argument("unknown --repair-engine '" + repair_engine +
                                "' (seq|parallel)");
  }
  if ((checkpoint_every != 0 || halt_after != 0) && checkpoint_path.empty()) {
    throw std::invalid_argument(
        "--checkpoint-every-events / --halt-after-events need "
        "--checkpoint FILE to write to");
  }

  const dist::ArrivalPlan plan = arrivals_from_spec(arrivals_spec, seed);
  if (plan.trivial()) {
    throw std::invalid_argument(
        "--arrivals: the plan has no arrivals (closed runs are `dlbsim "
        "balance`)");
  }
  const std::unique_ptr<dist::PlacementPolicy> placement =
      dist::make_placement(placement_spec);
  const pairwise::PairKernel& kernel = kernel_by_alg(alg);
  const dist::PeerSelector& selector = selector_by_name(peer);
  const core::InstanceStore store = core::load_instance(path);
  const Instance& instance = store.instance();
  if (realize_service && !instance.has_cost_model()) {
    throw std::invalid_argument(
        "--realize-service needs an instance with a cost model");
  }

  std::optional<dist::OpenCheckpoint> resume_from;
  if (!resume_path.empty()) {
    resume_from = dist::OpenCheckpoint::load_file(resume_path);
  }
  dist::OpenCheckpoint snapshot;

  dist::OpenSystemOptions options;
  options.arrivals = &plan;
  options.num_arrivals = num_arrivals;
  options.placement = placement.get();
  options.repair_every = repair_every;
  options.repair_budget = repair_budget;
  options.parallel_repair = repair_engine == "parallel";
  options.realize_service = realize_service;
  options.record_trace = !trace_path.empty();
  if (obs_files.enabled()) options.obs = &obs_files.context;
  if (resume_from.has_value()) options.resume = &*resume_from;
  if (checkpoint_every != 0) {
    options.checkpoint_every_events = checkpoint_every;
    options.checkpoint_out = &snapshot;
  }
  if (halt_after != 0) {
    options.halt_after_events = halt_after;
    options.checkpoint_out = &snapshot;
  }

  std::optional<parallel::ThreadPool> pool;
  if (options.parallel_repair) {
    pool.emplace(threads);
    options.pool = &*pool;
  }

  Schedule schedule = resume_from.has_value()
                          ? resume_from->make_schedule(instance)
                          : Schedule(instance);
  const dist::OpenSystemEngine engine(kernel, selector);
  const dist::OpenRunReport result = engine.run(schedule, options, seed);

  out << "algorithm       : " << alg << " (open system, "
      << repair_engine << " repair";
  if (options.parallel_repair) out << ", " << pool->num_threads() << " threads";
  out << ")\n"
      << "arrivals        : " << dist::arrival_kind_name(plan.kind) << " ("
      << arrivals_spec << ")\n"
      << "placement       : " << placement->name() << "\n";
  if (resume_from.has_value()) {
    out << "resumed from    : " << resume_path << " (event "
        << resume_from->events << ")\n";
  }
  result.print(out);
  if (!trace_path.empty()) {
    std::ofstream trace(trace_path);
    if (!trace) {
      err << "dlbsim: cannot write " << trace_path << "\n";
      return 1;
    }
    stats::CsvWriter csv(trace);
    csv.header({"burst", "makespan"});
    for (std::size_t x = 0; x < result.makespan_trace.size(); ++x) {
      csv.row({stats::CsvWriter::num(x + 1),
               stats::CsvWriter::num(result.makespan_trace[x])});
    }
    out << "trace written   : " << trace_path << " ("
        << result.makespan_trace.size() << " rows)\n";
  }
  if (!checkpoint_path.empty()) {
    if (snapshot.num_machines == 0) {
      out << "checkpoint      : not taken (run drained first)\n";
    } else {
      snapshot.save_file(checkpoint_path);
      out << "checkpoint      : " << checkpoint_path << " (event "
          << snapshot.events << ")\n";
    }
  }
  return obs_files.write(out, err);
}

// ----- simulate -----

int cmd_simulate(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string path = args.require("in");
  const std::string alg = args.get("alg", "dlb2c");
  const std::uint64_t seed = args.get_seed("seed", 1);
  const std::string trace_path = args.get("trace", "");
  ObsFiles obs_files(args, "trace-json", "metrics-json");
  dist::AsyncOptions options;
  options.duration = args.get_double("duration", 40.0);
  options.message_latency = args.get_double("latency", 0.1);
  options.mean_think_time = args.get_double("think", 1.0);
  options.reject_backoff = args.get_double("backoff", 1.0);
  options.seed = seed;
  options.record_trace = !trace_path.empty();
  if (obs_files.enabled()) options.obs = &obs_files.context;
  if (const int rc = check_unused(args, err)) return rc;

  const core::InstanceStore store = core::load_instance(path);
  const Instance& instance = store.instance();
  Schedule schedule(instance, gen::random_assignment(instance, seed));

  const pairwise::PairKernel& kernel = kernel_by_alg(alg);

  const dist::AsyncRunResult result =
      dist::run_async(schedule, kernel, options);

  const Cost lb = makespan_lower_bound(instance);
  const std::size_t m = instance.num_machines();
  out << "algorithm       : " << alg << " (async)\n"
      << "virtual time    : " << result.end_time << "\n";
  result.print(out);
  out << "sessions        : " << result.exchanges << " completed, "
      << result.sessions_rejected << " rejected ("
      << result.sessions_per_machine(m) << " per machine)\n"
      << "messages        : " << result.messages << "\n"
      << "LB              : " << lb << "\n"
      << "final factor    : " << result.final_makespan / lb << "\n";
  if (!trace_path.empty()) {
    std::ofstream trace(trace_path);
    if (!trace) {
      err << "dlbsim: cannot write " << trace_path << "\n";
      return 1;
    }
    stats::CsvWriter csv(trace);
    csv.header({"time", "makespan"});
    for (const dist::AsyncTracePoint& point : result.trace) {
      csv.row({stats::CsvWriter::num(point.time),
               stats::CsvWriter::num(point.makespan)});
    }
    out << "trace written   : " << trace_path << " (" << result.trace.size()
        << " rows)\n";
  }
  return obs_files.write(out, err);
}

// ----- transport -----

/// %.17g: the shortest form that round-trips a double exactly — status
/// lines compare these byte-for-byte across processes and backends.
std::string exact_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// The simulated reference run of the lockstep transport protocol: the
/// multi-process CI job launches a real-socket cluster on the same
/// (instance, seed, rounds) and requires bitwise-equal cmax / load lines
/// and an equal migration total from this command.
int cmd_transport(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string path = args.require("in");
  const std::string alg = args.get("alg", "dlb2c");
  const std::uint64_t seed = args.get_seed("seed", 1);
  const auto rounds = static_cast<std::size_t>(args.get_int("rounds", 10));
  const double latency = args.get_double("latency", 0.05);
  const double retry = args.get_double("retry-timeout", 0.5);
  const std::string fault_kind = args.get("fault", "none");
  const double fault_p = args.get_double("fault-p", 0.1);
  const std::uint64_t fault_seed = args.get_seed("fault-seed", seed + 1);
  ObsFiles obs_files(args, "trace-json", "metrics-json");
  if (const int rc = check_unused(args, err)) return rc;

  const pairwise::PairKernel& kernel = kernel_by_alg(alg);
  const core::InstanceStore store = core::load_instance(path);
  const Instance& instance = store.instance();
  Schedule replica(instance, gen::random_assignment(instance, seed));

  des::Engine engine;
  net::ConstantLatency latency_model(latency);
  stats::Rng net_rng = stats::Rng::stream(seed, 0x7A115B0A7ULL);
  net::Network network(engine, latency_model, net_rng);
  const net::FaultPlan plan =
      net::fault_plan_by_name(fault_kind, fault_p, fault_seed);
  if (!plan.trivial()) network.set_fault_plan(&plan);

  net::SimTransport transport(engine, network, instance.num_machines());
  dist::TransportRunnerOptions options;
  options.kernel = &kernel;
  options.seed = seed;
  options.rounds = rounds;
  options.retry_timeout = retry;
  if (obs_files.enabled()) options.obs = &obs_files.context;
  dist::TransportRunner runner(replica, transport, options);
  runner.start();
  runner.run_to_completion();

  const auto& counters = runner.counters();
  Cost cmax = 0.0;
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    cmax = std::max(cmax, runner.canonical_load(i));
  }
  out << "transport       : sim\n"
      << "alg             : " << alg << "\n"
      << "machines        : " << instance.num_machines() << "\n"
      << "jobs            : " << instance.num_jobs() << "\n"
      << "seed            : " << seed << "\n"
      << "rounds          : " << rounds << "\n"
      << "sessions        : " << counters.sessions_completed << " of "
      << runner.total() << "\n"
      << "exchanges       : " << counters.exchanges << "\n"
      << "migrations      : " << counters.migrations << "\n"
      << "transfers       : " << counters.transfers_sent << " sent, "
      << counters.transfers_applied << " applied\n"
      << "retries         : " << counters.retries << "\n"
      << "duplicates      : " << counters.duplicates_ignored << "\n";
  if (!plan.trivial()) {
    const net::FaultStats& faults = network.fault_stats();
    out << "faults          : dropped=" << faults.dropped
        << " delayed=" << faults.delayed
        << " duplicated=" << faults.duplicated
        << " reordered=" << faults.reordered << "\n";
  }
  out << "cmax            : " << exact_double(cmax) << "\n";
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    std::string label = "load " + std::to_string(i);
    label.resize(16, ' ');
    out << label << ": " << exact_double(runner.canonical_load(i))
        << " jobs=" << runner.sorted_jobs(i).size() << "\n";
  }
  return obs_files.write(out, err);
}

// ----- cluster observability: trace-merge / metrics-merge / flight -----

stats::Json load_json_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::invalid_argument("cannot read " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return stats::Json::parse(text.str());
}

std::vector<std::string> split_comma_list(const std::string& text) {
  std::vector<std::string> items;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t comma = text.find(',', begin);
    if (comma == std::string::npos) comma = text.size();
    if (comma > begin) items.push_back(text.substr(begin, comma - begin));
    if (comma == text.size()) break;
    begin = comma + 1;
  }
  return items;
}

int write_text_file(const std::string& path, const std::string& text,
                    std::ostream& err) {
  std::ofstream file(path);
  if (!file) {
    err << "dlbsim: cannot write " << path << "\n";
    return 1;
  }
  file << text;
  return 0;
}

/// Stitches N per-daemon Chrome traces into one cluster trace. Exit code
/// 1 when the merged trace fails causal validation (orphan spans, orphan
/// receives, or non-monotone session ordering) so CI can gate on it.
int cmd_trace_merge(const Args& args, std::ostream& out, std::ostream& err) {
  const std::vector<std::string> paths =
      split_comma_list(args.require("in"));
  const std::string out_path = args.get("out", "");
  if (const int rc = check_unused(args, err)) return rc;
  if (paths.empty()) {
    throw std::invalid_argument("--in needs at least one trace file");
  }

  std::vector<obs::ProcessTrace> processes;
  processes.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    obs::ProcessTrace process;
    process.pid = static_cast<std::uint32_t>(i);
    process.name = "dlbd[" + std::to_string(i) + "]";
    process.events = obs::events_from_chrome_json(load_json_file(paths[i]));
    processes.push_back(std::move(process));
  }
  const obs::MergedTrace merged = obs::merge_cluster_trace(processes);
  const obs::MergeReport& report = merged.report;
  if (!out_path.empty()) {
    if (const int rc =
            write_text_file(out_path, merged.chrome.dump(2) + "\n", err)) {
      return rc;
    }
    out << "merged trace    : " << out_path << "\n";
  }
  out << "processes       : " << report.processes << "\n"
      << "events          : " << report.events << "\n"
      << "sessions        : " << report.sessions << " ("
      << report.cross_host_sessions << " cross-host)\n"
      << "flow links      : " << report.flow_links << "\n"
      << "orphan spans    : " << report.orphan_spans << "\n"
      << "orphan receives : " << report.orphan_receives << "\n";
  for (const std::string& violation : report.ordering_violations) {
    out << "ordering        : " << violation << "\n";
  }
  out << "causal check    : " << (report.ok() ? "ok" : "FAILED") << "\n";
  return report.ok() ? 0 : 1;
}

/// Merges N per-daemon metrics snapshots into the cluster documents the
/// launcher uploads: full merge, deterministic stable view, Prometheus
/// text exposition.
int cmd_metrics_merge(const Args& args, std::ostream& out,
                      std::ostream& err) {
  const std::vector<std::string> paths =
      split_comma_list(args.require("in"));
  const std::string out_path = args.get("out", "");
  const std::string stable_path = args.get("stable-out", "");
  const std::string prom_path = args.get("prom", "");
  if (const int rc = check_unused(args, err)) return rc;
  if (paths.empty()) {
    throw std::invalid_argument("--in needs at least one snapshot file");
  }

  std::vector<stats::Json> snapshots;
  snapshots.reserve(paths.size());
  for (const std::string& path : paths) {
    snapshots.push_back(load_json_file(path));
  }
  const stats::Json merged = obs::merge_metrics_snapshots(snapshots);
  out << "daemons         : " << snapshots.size() << "\n";
  if (!out_path.empty()) {
    if (const int rc =
            write_text_file(out_path, merged.dump(2) + "\n", err)) {
      return rc;
    }
    out << "merged snapshot : " << out_path << "\n";
  }
  if (!stable_path.empty()) {
    const stats::Json stable = obs::stable_cluster_view(merged);
    if (const int rc =
            write_text_file(stable_path, stable.dump(2) + "\n", err)) {
      return rc;
    }
    out << "stable view     : " << stable_path << "\n";
  }
  if (!prom_path.empty()) {
    if (const int rc =
            write_text_file(prom_path, obs::prometheus_exposition(merged),
                            err)) {
      return rc;
    }
    out << "prometheus      : " << prom_path << "\n";
  }
  return 0;
}

/// dlb_top-style console rendering of a flight-recorder dump: the
/// convergence series as an ASCII plot plus the latest sample's numbers.
int cmd_flight(const Args& args, std::ostream& out, std::ostream& err) {
  const std::string path = args.require("in");
  const std::string series_name = args.get("series", "cmax");
  stats::LinePlotOptions plot;
  plot.width = static_cast<std::size_t>(
      args.get_int("width", static_cast<std::int64_t>(plot.width)));
  plot.height = static_cast<std::size_t>(
      args.get_int("height", static_cast<std::int64_t>(plot.height)));
  plot.axis_precision = 2;
  if (const int rc = check_unused(args, err)) return rc;

  const std::vector<obs::FlightSample> samples =
      obs::FlightRecorder::samples_from_json(load_json_file(path));
  if (samples.empty()) {
    out << "flight recorder : empty (run with obs enabled)\n";
    return 0;
  }

  std::vector<double> series;
  series.reserve(samples.size());
  for (const obs::FlightSample& sample : samples) {
    if (series_name == "cmax") {
      series.push_back(sample.cmax);
    } else if (series_name == "imbalance") {
      series.push_back(sample.imbalance);
    } else if (series_name == "migrations") {
      series.push_back(static_cast<double>(sample.migrations));
    } else if (series_name == "exchanges") {
      series.push_back(static_cast<double>(sample.exchanges));
    } else if (series_name == "queue-max") {
      series.push_back(static_cast<double>(sample.queue_max));
    } else if (series_name == "frames") {
      series.push_back(static_cast<double>(sample.frames));
    } else if (series_name == "retries") {
      series.push_back(static_cast<double>(sample.retries));
    } else {
      throw std::invalid_argument(
          "unknown --series '" + series_name +
          "' (cmax|imbalance|migrations|exchanges|queue-max|frames|"
          "retries)");
    }
  }

  const obs::FlightSample& last = samples.back();
  out << "samples         : " << samples.size() << " (rounds "
      << samples.front().round << ".." << last.round << ")\n"
      << "latest          : cmax=" << last.cmax
      << " imbalance=" << last.imbalance
      << " exchanges=" << last.exchanges
      << " migrations=" << last.migrations
      << " queue-max=" << last.queue_max << "\n"
      << series_name << " over rounds:\n"
      << stats::line_plot_string(series, plot);
  return 0;
}

// ----- markov -----

int cmd_markov(const Args& args, std::ostream& out, std::ostream& err) {
  const auto m = static_cast<int>(args.get_int("m", 6));
  const auto p_max = static_cast<markov::Load>(args.get_int("pmax", 4));
  if (const int rc = check_unused(args, err)) return rc;

  const auto analysis = markov::analyze_steady_state(m, p_max);
  out << "m=" << m << " pmax=" << p_max << " total=" << analysis.total
      << " states=" << analysis.num_states << " sink=" << analysis.sink_size
      << " thm10_bound=" << analysis.theorem10_bound
      << " sink_max=" << analysis.sink_max_makespan << "\n";
  stats::CsvWriter csv(out);
  csv.header({"makespan", "normalized", "probability"});
  for (const auto& point : analysis.pdf.points) {
    csv.row({stats::CsvWriter::num(static_cast<std::size_t>(point.makespan)),
             stats::CsvWriter::num(point.normalized),
             stats::CsvWriter::num(point.probability)});
  }
  return 0;
}

}  // namespace

std::string usage() {
  return R"(usage: dlbsim <command> [options]

commands:
  gen      --out FILE [--kind two-cluster|identical|unrelated|typed|multi]
           [--m1 N --m2 N | --m N | --sizes N,N,...] [--jobs N] [--types K]
           [--lo X --hi X] [--seed S]
           (a .dlbi extension writes the mmap-able binary format)
  convert  --in FILE --out FILE [--to auto|text|binary]
           (lossless text <-> binary; auto picks binary for .dlbi)
  info     --in FILE
  solve    --in FILE
           [--alg list|lpt|ect|minmin|maxmin|sufferage|clb2c|lenstra|exact]
  balance  --in FILE [--alg KERNEL] [--peer uniform|ring|max-load]
           [--engine seq|parallel] [--threads N]
           [--cost-model det:V|normal:S|lognormal:S|pareto:A,L,H]
           [--exchanges-per-machine N] [--seed S] [--trace FILE.csv]
           [--trace-json FILE.json] [--metrics-json FILE.json]
           [--flight-json FILE.json]
           [--churn-plan FILE] [--checkpoint FILE --checkpoint-every N]
           [--resume FILE]
  serve    --in FILE --arrivals poisson:RATE|bursty:R,OFF,ON,OFF|
           diurnal:R1,R2,...@BIN|FILE
           [--alg KERNEL] [--peer NAME] [--placement random|two_choices:d|ect]
           [--num-arrivals N] [--repair-every T] [--repair-budget N]
           [--repair-engine seq|parallel] [--threads N] [--realize-service]
           [--seed S] [--trace FILE.csv] [--trace-json FILE.json]
           [--metrics-json FILE.json] [--flight-json FILE.json]
           [--checkpoint FILE [--checkpoint-every-events N |
            --halt-after-events N]] [--resume FILE]
           (open-system service run: online arrivals, FIFO service,
            background repair; bitwise identical at any thread count and
            across halt/resume — docs/open-system.md)
  simulate --in FILE [--alg KERNEL] [--duration T]
           [--latency T] [--think T] [--backoff T] [--seed S]
           [--trace FILE.csv] [--trace-json FILE.json]
           [--metrics-json FILE.json]

  transport --in FILE [--alg KERNEL] [--seed S] [--rounds N]
           [--latency T] [--retry-timeout T]
           [--fault none|drop|delay|duplicate|reorder|chaos]
           [--fault-p P] [--fault-seed S]
           [--trace-json FILE.json] [--metrics-json FILE.json]
           [--flight-json FILE.json]
  trace-merge   --in a.json,b.json,... [--out merged.json]
           (exit 1 when causal validation fails)
  metrics-merge --in a.json,b.json,... [--out merged.json]
           [--stable-out stable.json] [--prom metrics.prom]
  flight   --in flight.json
           [--series cmax|imbalance|migrations|exchanges|queue-max|
            frames|retries] [--width N] [--height N]
  markov   [--m N] [--pmax P]
  help

KERNEL is any registered pair kernel (dlbsim balance --alg ? lists them);
the classic names dlb2c|dlbkc|ojtb|mjtb all resolve. Risk-aware variants
(<kernel>_q95, <kernel>_effsize, --peer max-load_q95|max-load_effsize)
balance quantile or effective-size loads from the instance's cost model
(see --cost-model and docs/stochastic.md).

Every --in FILE accepts either format (text .inst or binary .dlbi),
auto-detected by content; see docs/storage.md.
)";
}

int run_command(const std::vector<std::string>& argv, std::ostream& out,
                std::ostream& err) {
  if (argv.empty()) return usage_error(err, "missing command");
  const std::string command = argv.front();
  const Args args =
      Args::parse(std::vector<std::string>(argv.begin() + 1, argv.end()));
  try {
    if (command == "gen") return cmd_gen(args, out, err);
    if (command == "convert") return cmd_convert(args, out, err);
    if (command == "info") return cmd_info(args, out, err);
    if (command == "solve") return cmd_solve(args, out, err);
    if (command == "balance") return cmd_balance(args, out, err);
    if (command == "serve") return cmd_serve(args, out, err);
    if (command == "simulate") return cmd_simulate(args, out, err);
    if (command == "transport") return cmd_transport(args, out, err);
    if (command == "trace-merge") return cmd_trace_merge(args, out, err);
    if (command == "metrics-merge") {
      return cmd_metrics_merge(args, out, err);
    }
    if (command == "flight") return cmd_flight(args, out, err);
    if (command == "markov") return cmd_markov(args, out, err);
    if (command == "help") {
      out << usage();
      return 0;
    }
    return usage_error(err, "unknown command '" + command + "'");
  } catch (const std::invalid_argument& e) {
    return usage_error(err, e.what());
  } catch (const std::exception& e) {
    err << "dlbsim: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace dlb::cli
