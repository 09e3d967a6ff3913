#include "runner.hpp"

#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <regex>
#include <streambuf>
#include <thread>

#include "cli/args.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/monte_carlo.hpp"
#include "stats/summary.hpp"

#ifndef DLB_BUILD_TYPE
#define DLB_BUILD_TYPE "unknown"
#endif

namespace dlb::bench {

namespace {

/// A streambuf that swallows everything (suppresses experiment reports on
/// timing repetitions without touching the experiments themselves).
class NullBuf final : public std::streambuf {
 protected:
  int overflow(int c) override { return c == EOF ? '\0' : c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

/// RAII redirect of std::cout into a NullBuf.
class SuppressCout {
 public:
  SuppressCout() : saved_(std::cout.rdbuf(&null_buf_)) {}
  ~SuppressCout() { std::cout.rdbuf(saved_); }
  SuppressCout(const SuppressCout&) = delete;
  SuppressCout& operator=(const SuppressCout&) = delete;

 private:
  NullBuf null_buf_;
  std::streambuf* saved_;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

TimingSummary summarize(const std::vector<double>& rep_seconds) {
  stats::SampleSet samples;
  for (const double s : rep_seconds) samples.add(s);
  TimingSummary summary;
  summary.reps = rep_seconds.size();
  if (!rep_seconds.empty()) {
    summary.min_s = samples.min();
    summary.median_s = samples.quantile(0.5);
    summary.p95_s = samples.quantile(0.95);
    summary.mean_s = samples.mean();
  }
  return summary;
}

const char* compiler_string() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::vector<ExperimentResult> run_experiments(const Registry& registry,
                                              const RunnerOptions& options,
                                              std::ostream& log) {
  const std::vector<const Experiment*> selected =
      registry.match(options.filter);

  parallel::ThreadPool* pool = nullptr;
  if (options.threads != 1) {
    parallel::set_default_pool_threads(options.threads);
    pool = &parallel::default_pool();
  }

  std::vector<ExperimentResult> results;
  results.reserve(selected.size());
  const std::size_t reps = options.reps == 0 ? 1 : options.reps;
  std::size_t index = 0;
  for (const Experiment* experiment : selected) {
    ++index;
    ExperimentResult result;
    result.name = experiment->name;
    result.description = experiment->description;

    log << "[" << index << "/" << selected.size() << "] " << experiment->name
        << std::flush;
    std::vector<double> rep_seconds;
    rep_seconds.reserve(reps);
    try {
      for (std::size_t rep = 0; rep < options.warmup + reps; ++rep) {
        const bool reporting = rep == 0;
        const bool timed = rep >= options.warmup;
        RunContext ctx;
        ctx.smoke = options.smoke;
        ctx.full = options.full;
        ctx.pool = pool;
        if (reporting) ctx.csv_dir = options.csv_dir;

        // Fresh observability sinks per repetition: counter totals are
        // per-run sums, not accumulated across warmup + timed reps.
        obs::Metrics obs_metrics;
        obs::Tracer obs_tracer;
        obs::FlightRecorder obs_flight;
        obs::Context obs_context;
        if (options.with_obs) {
          obs_context.metrics = &obs_metrics;
          if (reporting && options.trace_dir) {
            obs_context.tracer = &obs_tracer;
          }
          // The flight recorder rides along whenever obs is on, so the
          // perf-smoke overhead gate prices its per-epoch sampling too.
          obs_context.flight = &obs_flight;
          ctx.obs = &obs_context;
        }

        result.metrics.clear();
        {
          std::optional<SuppressCout> silence;
          if (options.quiet || !reporting) silence.emplace();
          const auto start = std::chrono::steady_clock::now();
          experiment->fn(ctx, result.metrics);
          if (timed) rep_seconds.push_back(seconds_since(start));
        }
        if (options.with_obs) {
          // Sorted by name inside counter_values(), appended after the
          // experiment's own counters: insertion order — and therefore the
          // JSON — is byte-deterministic regardless of thread count.
          for (const auto& [name, total] : obs_metrics.counter_values()) {
            result.metrics.counter("obs." + name,
                                   static_cast<double>(total));
          }
        }
        if (obs_context.tracer != nullptr && options.trace_dir) {
          const std::filesystem::path trace_path =
              std::filesystem::path(*options.trace_dir) /
              (experiment->name + ".trace.json");
          std::ofstream trace_out(trace_path);
          if (trace_out) {
            trace_out << obs_tracer.to_chrome_json().dump(2) << "\n";
          } else {
            log << "  (cannot write " << trace_path.string() << ")";
          }
        }
        if (reporting && options.with_obs && options.trace_dir &&
            obs_flight.size() != 0) {
          const std::filesystem::path flight_path =
              std::filesystem::path(*options.trace_dir) /
              (experiment->name + ".flight.json");
          std::ofstream flight_out(flight_path);
          if (flight_out) {
            flight_out << obs_flight.to_json().dump(2) << "\n";
          } else {
            log << "  (cannot write " << flight_path.string() << ")";
          }
        }
      }
    } catch (const std::exception& e) {
      result.ok = false;
      result.error = e.what();
    }
    result.timing = summarize(rep_seconds);
    if (result.ok) {
      log << "  " << std::fixed << std::setprecision(1)
          << result.timing.median_s * 1e3 << " ms"
          << std::defaultfloat << "\n";
    } else {
      log << "  FAILED: " << result.error << "\n";
    }
    results.push_back(std::move(result));
  }
  return results;
}

stats::Json results_to_json(const std::vector<ExperimentResult>& results,
                            const RunnerOptions& options) {
  stats::Json doc = stats::Json::object();
  doc["schema"] = "dlb-bench";
  doc["schema_version"] = kJsonSchemaVersion;

  stats::Json config = stats::Json::object();
  config["smoke"] = options.smoke;
  config["full"] = options.full;
  config["filter"] = options.filter;
  config["reps"] = options.reps;
  config["warmup"] = options.warmup;
  doc["config"] = std::move(config);

  if (options.with_timing) {
    stats::Json environment = stats::Json::object();
    environment["threads"] = options.threads;
    environment["hardware_concurrency"] =
        static_cast<std::size_t>(std::thread::hardware_concurrency());
    environment["compiler"] = compiler_string();
    environment["build_type"] = DLB_BUILD_TYPE;
    doc["environment"] = std::move(environment);
  }

  stats::Json experiments = stats::Json::array();
  for (const ExperimentResult& result : results) {
    stats::Json entry = stats::Json::object();
    entry["name"] = result.name;
    entry["description"] = result.description;
    entry["status"] = result.ok ? "ok" : "error";
    if (!result.ok) entry["error"] = result.error;

    stats::Json metrics = stats::Json::object();
    for (const auto& [name, value] : result.metrics.metrics()) {
      metrics[name] = value;
    }
    entry["metrics"] = std::move(metrics);

    stats::Json counters = stats::Json::object();
    for (const auto& [name, value] : result.metrics.counters()) {
      counters[name] = value;
    }
    entry["counters"] = std::move(counters);

    if (options.with_timing && result.ok) {
      stats::Json wall = stats::Json::object();
      wall["min"] = result.timing.min_s;
      wall["median"] = result.timing.median_s;
      wall["p95"] = result.timing.p95_s;
      wall["mean"] = result.timing.mean_s;
      wall["reps"] = result.timing.reps;

      stats::Json timing = stats::Json::object();
      timing["wall_s"] = std::move(wall);
      if (result.timing.median_s > 0.0) {
        stats::Json rates = stats::Json::object();
        for (const auto& [name, total] : result.metrics.counters()) {
          rates[name + "_per_s"] = total / result.timing.median_s;
        }
        timing["rates"] = std::move(rates);
      }
      entry["timing"] = std::move(timing);
    }
    experiments.push_back(std::move(entry));
  }
  doc["experiments"] = std::move(experiments);
  return doc;
}

namespace {

void print_usage(std::ostream& out) {
  out << "dlb_bench — unified benchmark driver\n\n"
         "Usage: dlb_bench [options]\n\n"
         "  --list          list registered experiments and exit\n"
         "  --filter R      run experiments whose name matches regex R\n"
         "  --reps N        timed repetitions per experiment "
         "(default: 3, smoke: 1)\n"
         "  --warmup N      untimed warmup repetitions "
         "(default: 1, smoke: 0)\n"
         "  --threads N     replication worker threads "
         "(0 = hardware, default 0)\n"
         "  --smoke         reduced sizes for CI (fast, same shapes)\n"
         "  --full          million-machine tier for perf experiments\n"
         "                  (nightly; mutually exclusive with --smoke)\n"
         "  --csv DIR       also dump per-experiment CSV series into DIR\n"
         "  --json FILE     write the telemetry document to FILE\n"
         "  --no-timing     omit timing + environment from the JSON\n"
         "                  (deterministic output for a fixed build)\n"
         "  --no-obs        disable the src/obs metrics registry (the\n"
         "                  baseline side of the observability overhead "
         "gate)\n"
         "  --trace-dir D   write a Chrome trace per experiment into D\n"
         "  --quiet         suppress the experiments' reports\n"
         "  --help          this message\n";
}

}  // namespace

int bench_main(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);

  cli::Args args;
  RunnerOptions options;
  std::optional<std::string> json_path;
  bool list_only = false;
  try {
    args = cli::Args::parse(tokens);
    if (args.has("help")) {
      print_usage(std::cout);
      return 0;
    }
    list_only = args.has("list");
    options.smoke = args.has("smoke");
    options.full = args.has("full");
    if (options.smoke && options.full) {
      throw std::invalid_argument("--smoke and --full are mutually exclusive");
    }
    options.quiet = args.has("quiet");
    options.with_timing = !args.has("no-timing");
    options.with_obs = !args.has("no-obs");
    options.filter = args.get("filter", "");
    options.reps = args.get_count("reps", options.smoke ? 1 : 3);
    options.warmup = args.get_count("warmup", options.smoke ? 0 : 1);
    options.threads = args.get_count("threads", 0);
    if (args.has("csv")) options.csv_dir = args.require("csv");
    if (args.has("trace-dir")) {
      options.trace_dir = args.require("trace-dir");
      std::filesystem::create_directories(*options.trace_dir);
    }
    if (args.has("json")) json_path = args.require("json");
    const std::vector<std::string> unused = args.unused();
    if (!unused.empty() || !args.positional().empty()) {
      std::cerr << "dlb_bench: unknown argument";
      for (const std::string& u : unused) std::cerr << " --" << u;
      for (const std::string& p : args.positional()) std::cerr << " " << p;
      std::cerr << "\n\n";
      print_usage(std::cerr);
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "dlb_bench: " << e.what() << "\n\n";
    print_usage(std::cerr);
    return 2;
  }

  const Registry& registry = Registry::global();
  if (list_only) {
    for (const Experiment* experiment : registry.match(options.filter)) {
      std::cout << experiment->name << "\n    " << experiment->description
                << "\n";
    }
    return 0;
  }

  std::vector<const Experiment*> selected;
  try {
    selected = registry.match(options.filter);
  } catch (const std::regex_error& e) {
    std::cerr << "dlb_bench: bad --filter regex: " << e.what() << "\n";
    return 2;
  }
  if (selected.empty()) {
    std::cerr << "dlb_bench: no experiment matches filter '" << options.filter
              << "' (see --list)\n";
    return 2;
  }

  const std::vector<ExperimentResult> results =
      run_experiments(registry, options, std::clog);

  if (json_path) {
    const stats::Json doc = results_to_json(results, options);
    std::ofstream out(*json_path);
    if (!out) {
      std::cerr << "dlb_bench: cannot write " << *json_path << "\n";
      return 1;
    }
    out << doc.dump(2) << "\n";
    std::clog << "wrote " << *json_path << "\n";
  }

  int failures = 0;
  for (const ExperimentResult& result : results) {
    if (!result.ok) {
      ++failures;
      std::cerr << "FAILED: " << result.name << ": " << result.error << "\n";
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace dlb::bench
