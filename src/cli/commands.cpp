#include "cli/commands.hpp"

#include <algorithm>
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
#include "cli/flags.hpp"
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
#include "dist/transport_runner.hpp"
#include "markov/makespan_pdf.hpp"
#include "net/transport.hpp"
#include "obs/aggregate.hpp"
#include "obs/obs.hpp"
#include "obs/trace_merge.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/ascii_plot.hpp"
#include "stats/csv.hpp"

namespace dlb::cli {

namespace {

int usage_error(std::ostream& err, const std::string& message) {
  err << "dlbsim: " << message << "\n" << usage();
  return 2;
}

// ----- gen -----

int cmd_gen(const Args& args, std::ostream& out) {
  const std::string kind = args.get("kind", "two-cluster");
  const std::size_t jobs = args.get_count("jobs", 768);
  const Cost lo = args.get_double("lo", 1.0);
  const Cost hi = args.get_double("hi", 1000.0);
  const std::uint64_t seed = args.get_count("seed", 1);
  const std::string path = args.require("out");

  Instance instance = [&]() -> Instance {
    if (kind == "two-cluster") {
      return gen::two_cluster_uniform(args.get_count("m1", 64),
                                      args.get_count("m2", 32), jobs, lo, hi,
                                      seed);
    }
    if (kind == "identical") {
      return gen::identical_uniform(args.get_count("m", 96), jobs, lo, hi,
                                    seed);
    }
    if (kind == "unrelated") {
      return gen::uniform_unrelated(args.get_count("m", 16), jobs, lo, hi,
                                    seed);
    }
    if (kind == "typed") {
      return gen::typed_uniform(args.get_count("m", 16), jobs,
                                args.get_count("types", 4), lo, hi, seed);
    }
    if (kind == "multi") {
      // --sizes 16,8,4 -> three clusters.
      std::vector<std::size_t> sizes;
      for (const std::string& part : split_list(args.get("sizes", "16,16"))) {
        const std::optional<std::uint64_t> size = to_count(part);
        if (!size || *size == 0) {
          throw std::invalid_argument("--sizes expects a comma-separated "
                                      "list of positive integers");
        }
        sizes.push_back(*size);
      }
      return gen::multi_cluster_uniform(sizes, jobs, lo, hi, seed);
    }
    throw std::invalid_argument(
        "unknown --kind '" + kind +
        "' (two-cluster|identical|unrelated|typed|multi)");
  }();
  args.reject_unused();

  // Extension picks the format: `.dlbi` writes the mmap-able binary,
  // anything else the text format.
  core::save_instance_auto(instance, path);
  out << "wrote " << path << ": " << instance.num_machines() << " machines ("
      << instance.num_groups() << " groups), " << instance.num_jobs()
      << " jobs\n";
  return 0;
}

// ----- convert -----

int cmd_convert(const Args& args, std::ostream& out) {
  InputFlag input(args);
  const std::string out_path = args.require("out");
  const std::string to = args.get("to", "auto");
  args.reject_unused();

  const Instance& instance = input.load();
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

int cmd_info(const Args& args, std::ostream& out) {
  InputFlag input(args);
  args.reject_unused();
  const Instance& instance = input.load();
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

int cmd_solve(const Args& args, std::ostream& out) {
  InputFlag input(args);
  const std::string alg = args.get("alg", "ect");
  args.reject_unused();
  const Instance& instance = input.load();

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
    throw std::invalid_argument("unknown --alg '" + alg + "'");
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

/// Owns the sinks behind the shared obs flags for one command invocation.
struct ObsFiles {
  ObsFlags paths;
  obs::Metrics metrics;
  obs::Tracer tracer;
  obs::FlightRecorder flight;
  obs::Context context;

  explicit ObsFiles(const Args& args) : paths(args) {
    if (!paths.trace.empty()) context.tracer = &tracer;
    if (!paths.flight.empty()) context.flight = &flight;
    if (paths.any()) context.metrics = &metrics;
  }
  /// The context to hand an engine, or null when no sink was requested.
  [[nodiscard]] const obs::Context* sinks() const noexcept {
    return paths.any() ? &context : nullptr;
  }
  void write(std::ostream& out) const {
    paths.write(metrics, tracer, flight, out);
  }
};

// ----- balance -----

int cmd_balance(const Args& args, std::ostream& out) {
  InputFlag input(args);
  const std::string alg = args.get("alg", "dlb2c");
  const std::string peer = args.get("peer", "uniform");
  const std::string engine_kind = args.get("engine", "seq");
  const std::size_t threads = args.get_count("threads", 0);
  const std::uint64_t seed = args.get_count("seed", 1);
  const std::uint64_t per_machine =
      args.get_count("exchanges-per-machine", 10);
  const std::string trace_path = args.get("trace", "");
  const std::string cost_model_spec = args.get("cost-model", "");
  const std::string churn_path = args.get("churn-plan", "");
  const std::uint64_t checkpoint_every = args.get_count("checkpoint-every", 0);
  const std::string checkpoint_path = args.get("checkpoint", "");
  const std::string resume_path = args.get("resume", "");
  ObsFiles obs_files(args);
  args.reject_unused();
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
  Instance& instance = input.load();
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

  // One options block serves both engines; the parallel one adds a pool.
  dist::ParallelEngineOptions options;
  options.max_exchanges = instance.num_machines() * per_machine;
  options.record_trace = !trace_path.empty();
  options.obs = obs_files.sinks();
  if (churn_plan.has_value()) options.churn = &*churn_plan;
  if (resume_from.has_value()) options.resume = &*resume_from;
  if (checkpoint_every != 0) {
    options.checkpoint_every = checkpoint_every;
    options.checkpoint_out = &snapshot;
  }

  // The one result tail. Only the algorithm suffix, the epochs line and
  // the trace's step and count column names are engine-specific. The
  // trace's first two columns are the original format; the count column
  // and `migrations` (cumulative job moves) are appended so old scripts
  // keep parsing. The parallel engine only has epoch-granular state, so
  // its trace is per epoch with the session count in place of `changed`.
  const auto report = [&](const dist::EngineResult& result,
                          const std::string& suffix,
                          const std::string& epochs_line, const char* kind,
                          const char* count_column) {
    out << "algorithm       : " << alg << suffix << "\n";
    if (churn_plan.has_value()) {
      out << "churn plan      : " << churn_path << " ("
          << churn_plan->events.size() << " events)\n";
    }
    if (resume_from.has_value()) {
      out << "resumed from    : " << resume_path << " (epoch "
          << resume_from->epochs << ")\n";
    }
    result.print(out);
    out << "effective       : " << result.changed_exchanges << "\n"
        << epochs_line << "LB              : " << lb << "\n"
        << "final factor    : " << result.final_makespan / lb << "\n";
    if (!trace_path.empty()) {
      const std::vector<dist::TracePoint>& trace = result.trace;
      write_trace_csv(
          trace_path, {kind, "makespan", count_column, "migrations"},
          trace.size(),
          [&](std::size_t x) -> std::vector<std::string> {
            return {stats::CsvWriter::num(x + 1),
                    stats::CsvWriter::num(trace[x].makespan),
                    std::to_string(trace[x].count),
                    stats::CsvWriter::num(
                        static_cast<std::size_t>(trace[x].migrations))};
          },
          out);
    }
    // A snapshot was taken iff the engine filled it (cadence hit at least
    // one epoch boundary); a default-constructed Checkpoint has no
    // machines.
    if (!checkpoint_path.empty()) {
      if (snapshot.num_machines == 0) {
        out << "checkpoint      : not taken (run ended before epoch "
            << checkpoint_every << ")\n";
      } else {
        snapshot.save_file(checkpoint_path);
        out << "checkpoint      : " << checkpoint_path << " (epoch "
            << snapshot.epochs << ")\n";
      }
    }
    obs_files.write(out);
    return 0;
  };

  if (engine_kind == "parallel") {
    parallel::ThreadPool pool(threads);
    options.pool = &pool;
    const dist::ParallelRunResult result =
        dist::ParallelExchangeEngine(kernel, selector)
            .run(schedule, options, seed + 1);
    return report(result,
                  " (parallel, " + std::to_string(pool.num_threads()) +
                      " threads)",
                  "epochs          : " + std::to_string(result.epochs) +
                      " (" + std::to_string(result.conflicts) +
                      " conflicts, " + std::to_string(result.peer_retries) +
                      " peer retries)\n",
                  "epoch", "sessions");
  }
  stats::Rng rng(seed + 1);
  const dist::RunResult result =
      dist::ExchangeEngine(kernel, selector).run(schedule, options, rng);
  return report(result, "", "", "exchange", "changed");
}

// ----- serve -----

/// Parses a --arrivals value: an inline spec — "poisson:RATE",
/// "bursty:RATE,OFF_RATE,ON_DUR,OFF_DUR", "diurnal:R1,R2,...@BIN" — or a
/// path to a saved "dlb-arrival-plan v1" file. The plan seed is the run
/// seed, so `serve` runs are reproducible from the command line alone.
dist::ArrivalPlan arrivals_from_spec(const std::string& spec,
                                     std::uint64_t seed) {
  const auto parse_doubles = [&](const std::string& text) {
    std::vector<double> values;
    for (const std::string& part : split_list(text)) {
      const std::optional<double> value = to_number(part);
      if (!value) {
        throw std::invalid_argument("--arrivals: bad number '" + part +
                                    "' in '" + spec + "'");
      }
      values.push_back(*value);
    }
    return values;
  };

  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  if (colon != std::string::npos && kind == "poisson") {
    const std::vector<double> v = parse_doubles(spec.substr(colon + 1));
    if (v.size() != 1) {
      throw std::invalid_argument("--arrivals: poisson wants one rate, got '" +
                                  spec + "'");
    }
    return dist::ArrivalPlan::poisson(v[0], seed);
  }
  if (colon != std::string::npos && kind == "bursty") {
    const std::vector<double> v = parse_doubles(spec.substr(colon + 1));
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
    std::vector<double> trace = parse_doubles(body.substr(0, at));
    const std::vector<double> bin = parse_doubles(body.substr(at + 1));
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
int cmd_serve(const Args& args, std::ostream& out) {
  InputFlag input(args);
  const std::string arrivals_spec = args.require("arrivals");
  const std::string alg = args.get("alg", "dlb2c");
  const std::string peer = args.get("peer", "uniform");
  const std::string placement_spec = args.get("placement", "random");
  const std::uint64_t seed = args.get_count("seed", 1);
  const std::size_t num_arrivals = args.get_count("num-arrivals", 0);
  const double repair_every = args.get_double("repair-every", 0.0);
  const std::size_t repair_budget = args.get_count("repair-budget", 16);
  const std::string repair_engine = args.get("repair-engine", "seq");
  const std::size_t threads = args.get_count("threads", 0);
  const bool realize_service = args.has("realize-service");
  const std::string trace_path = args.get("trace", "");
  const std::uint64_t checkpoint_every =
      args.get_count("checkpoint-every-events", 0);
  const std::uint64_t halt_after = args.get_count("halt-after-events", 0);
  const std::string checkpoint_path = args.get("checkpoint", "");
  const std::string resume_path = args.get("resume", "");
  ObsFiles obs_files(args);
  args.reject_unused();
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
  const Instance& instance = input.load();
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
  options.obs = obs_files.sinks();
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
    const std::vector<dist::TracePoint>& trace = result.trace;
    write_trace_csv(
        trace_path, {"burst", "makespan"}, trace.size(),
        [&](std::size_t x) -> std::vector<std::string> {
          return {stats::CsvWriter::num(x + 1),
                  stats::CsvWriter::num(trace[x].makespan)};
        },
        out);
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
  obs_files.write(out);
  return 0;
}

// ----- simulate -----

int cmd_simulate(const Args& args, std::ostream& out) {
  InputFlag input(args);
  const std::string alg = args.get("alg", "dlb2c");
  const std::uint64_t seed = args.get_count("seed", 1);
  const std::string trace_path = args.get("trace", "");
  ObsFiles obs_files(args);
  dist::AsyncOptions options;
  options.duration = args.get_double("duration", 40.0);
  options.message_latency = args.get_double("latency", 0.1);
  options.mean_think_time = args.get_double("think", 1.0);
  options.reject_backoff = args.get_double("backoff", 1.0);
  options.seed = seed;
  options.record_trace = !trace_path.empty();
  options.obs = obs_files.sinks();
  args.reject_unused();

  const Instance& instance = input.load();
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
      << result.exchanges_per_machine(m) << " per machine)\n"
      << "messages        : " << result.messages << "\n"
      << "LB              : " << lb << "\n"
      << "final factor    : " << result.final_makespan / lb << "\n";
  if (!trace_path.empty()) {
    write_trace_csv(
        trace_path, {"time", "makespan"}, result.trace.size(),
        [&](std::size_t x) -> std::vector<std::string> {
          return {stats::CsvWriter::num(result.trace[x].time),
                  stats::CsvWriter::num(result.trace[x].makespan)};
        },
        out);
  }
  obs_files.write(out);
  return 0;
}

// ----- transport -----

/// The simulated reference run of the lockstep transport protocol: the
/// multi-process CI job launches a real-socket cluster on the same
/// (instance, seed, rounds) and requires bitwise-equal cmax / load lines
/// and an equal migration total from this command.
int cmd_transport(const Args& args, std::ostream& out) {
  InputFlag input(args);
  const std::string alg = args.get("alg", "dlb2c");
  const std::uint64_t seed = args.get_count("seed", 1);
  const std::size_t rounds = args.get_count("rounds", 10);
  const double latency = args.get_double("latency", 0.05);
  const double retry = args.get_double("retry-timeout", 0.5);
  const net::FaultPlan plan = fault_flags(args, seed);
  ObsFiles obs_files(args);
  args.reject_unused();

  const pairwise::PairKernel& kernel = kernel_by_alg(alg);
  const Instance& instance = input.load();
  Schedule replica(instance, gen::random_assignment(instance, seed));

  des::Engine engine;
  net::ConstantLatency latency_model(latency);
  stats::Rng net_rng = stats::Rng::stream(seed, 0x7A115B0A7ULL);
  net::Network network(engine, latency_model, net_rng);
  if (!plan.trivial()) network.set_fault_plan(&plan);

  net::SimTransport transport(engine, network, instance.num_machines());
  dist::TransportRunnerOptions options;
  options.kernel = &kernel;
  options.seed = seed;
  options.rounds = rounds;
  options.retry_timeout = retry;
  options.obs = obs_files.sinks();
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
    out << "faults          : " << fault_summary(network.fault_stats())
        << "\n";
  }
  out << "cmax            : " << exact_double(cmax) << "\n";
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    std::string label = "load " + std::to_string(i);
    label.resize(16, ' ');
    out << label << ": " << exact_double(runner.canonical_load(i))
        << " jobs=" << runner.sorted_jobs(i).size() << "\n";
  }
  obs_files.write(out);
  return 0;
}

// ----- cluster observability: trace-merge / metrics-merge / flight -----

stats::Json load_json_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::invalid_argument("cannot read " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return stats::Json::parse(text.str());
}

/// Stitches N per-daemon Chrome traces into one cluster trace. Exit code
/// 1 when the merged trace fails causal validation (orphan spans, orphan
/// receives, or non-monotone session ordering) so CI can gate on it.
int cmd_trace_merge(const Args& args, std::ostream& out) {
  const std::vector<std::string> paths = split_list(args.require("in"));
  const std::string out_path = args.get("out", "");
  args.reject_unused();

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
    write_json(out_path, merged.chrome);
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
int cmd_metrics_merge(const Args& args, std::ostream& out) {
  const std::vector<std::string> paths = split_list(args.require("in"));
  const std::string out_path = args.get("out", "");
  const std::string stable_path = args.get("stable-out", "");
  const std::string prom_path = args.get("prom", "");
  args.reject_unused();

  std::vector<stats::Json> snapshots;
  snapshots.reserve(paths.size());
  for (const std::string& path : paths) {
    snapshots.push_back(load_json_file(path));
  }
  const stats::Json merged = obs::merge_metrics_snapshots(snapshots);
  out << "daemons         : " << snapshots.size() << "\n";
  if (!out_path.empty()) {
    write_json(out_path, merged);
    out << "merged snapshot : " << out_path << "\n";
  }
  if (!stable_path.empty()) {
    write_json(stable_path, obs::stable_cluster_view(merged));
    out << "stable view     : " << stable_path << "\n";
  }
  if (!prom_path.empty()) {
    write_file(prom_path, [&](std::ostream& file) {
      file << obs::prometheus_exposition(merged);
    });
    out << "prometheus      : " << prom_path << "\n";
  }
  return 0;
}

/// dlb_top-style console rendering of a flight-recorder dump: the
/// convergence series as an ASCII plot plus the latest sample's numbers.
int cmd_flight(const Args& args, std::ostream& out) {
  const std::string path = args.require("in");
  const std::string series_name = args.get("series", "cmax");
  stats::LinePlotOptions plot;
  plot.width = args.get_count("width", plot.width);
  plot.height = args.get_count("height", plot.height);
  plot.axis_precision = 2;
  args.reject_unused();

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

int cmd_markov(const Args& args, std::ostream& out) {
  const auto m = static_cast<int>(args.get_count("m", 6));
  const auto p_max = static_cast<markov::Load>(args.get_count("pmax", 4));
  args.reject_unused();

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
  using Command = int (*)(const Args&, std::ostream&);
  static const std::map<std::string, Command> kCommands = {
      {"gen", cmd_gen},           {"convert", cmd_convert},
      {"info", cmd_info},         {"solve", cmd_solve},
      {"balance", cmd_balance},   {"serve", cmd_serve},
      {"simulate", cmd_simulate}, {"transport", cmd_transport},
      {"trace-merge", cmd_trace_merge},
      {"metrics-merge", cmd_metrics_merge},
      {"flight", cmd_flight},     {"markov", cmd_markov},
  };
  try {
    if (const auto it = kCommands.find(command); it != kCommands.end()) {
      return it->second(args, out);
    }
    if (command == "help") {
      out << usage();
      return 0;
    }
    return usage_error(err, "unknown command '" + command + "'");
  } catch (const dist::CheckpointMismatch& e) {
    // A --resume file that does not fit --in: the refused value is in a
    // file, not a flag, so it is no usage error.
    err << "dlbsim: " << e.what() << "\n";
    return 1;
  } catch (const dist::ServiceTimeRefused& e) {
    // A service time from --in that serve cannot run: the same.
    err << "dlbsim: " << e.what() << "\n";
    return 1;
  } catch (const std::invalid_argument& e) {
    return usage_error(err, e.what());
  } catch (const std::exception& e) {
    err << "dlbsim: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace dlb::cli
