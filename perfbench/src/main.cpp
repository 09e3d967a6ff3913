// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--data-dir DIR]
//
// Generates the workload's inputs from the seed (set-up, repeated and
// reported as a median), runs one untimed warm-up pass, then runs
// end-to-end passes for S seconds and prints every metric by name with
// its unit. Untraced (--trace 0) prints the end-to-end metrics; traced
// (--trace 1) alternates untraced and decorated passes and prints the
// per-layer metrics and the "where run_s went" table. Every pass is
// checked; the last line of stdout is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Exit status: 0 when every pass is correct, 1 on a failed check or an
// error, 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

/// Must match BENCHMARK.json's end_to_end list.
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"sessions_per_s", "1/s"},
    {"jobs_migrated_per_s", "1/s"},
    {"events_per_s", "1/s"},
    {"cmax_over_lb", "ratio"},
    {"response_p99_vt", "vt"},
    {"response_mean_vt", "vt"},
    {"session_p50_us", "us"},
    {"session_p99_us", "us"},
    {"peak_rss_mb", "MB"},
    {"failed_ratio", "ratio"},
};

/// Must match BENCHMARK.json's per_layer list. A metric a workload does
/// not exercise reads 0.
const std::vector<Metric> kPerLayer = {
    {"store.open_s", "s"},
    {"store.first_touch_s", "s"},
    {"store.mapped_mb", "MB"},
    {"lower_bound.s", "s"},
    {"kernel.calls", "count"},
    {"kernel.busy_s", "s"},
    {"kernel.us_per_call_p50", "us"},
    {"kernel.us_per_call_p99", "us"},
    {"kernel.changed_ratio", "ratio"},
    {"kernel.pool_jobs_mean", "count"},
    {"ratio_sort.ns_per_job", "ns"},
    {"engine.run_s", "s"},
    {"engine.self_s", "s"},
    {"engine.serial_share", "ratio"},
    {"engine.epochs", "count"},
    {"engine.conflict_ratio", "ratio"},
    {"selector.calls", "count"},
    {"selector.busy_s", "s"},
    {"churn.orphaned", "count"},
    {"churn.redispatched", "count"},
    {"checkpoint.save_s", "s"},
    {"checkpoint.load_s", "s"},
    {"checkpoint.kb", "KB"},
    {"open.placement.calls", "count"},
    {"open.placement.busy_s", "s"},
    {"open.loop_self_s", "s"},
    {"open.ns_per_event", "ns"},
    {"open.repair_bursts", "count"},
    {"open.repair_exchanges", "count"},
    {"net.frames_sent", "count"},
    {"net.bytes_sent", "bytes"},
    {"net.frames_per_session", "count"},
    {"net.send_busy_s", "s"},
    {"net.poll_busy_s", "s"},
    {"net.empty_polls", "count"},
    {"net.retries", "count"},
    {"net.duplicates", "count"},
    {"frame.encode_ns", "ns"},
    {"frame.decode_ns", "ns"},
    {"where.other_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

/// Set-up repeats at least kSetupMinReps times and, while the repeats
/// together take less than kSetupBudgetS, up to kSetupMaxReps times; the
/// median is reported. Millisecond set-ups get many repeats, slow ones few.
constexpr std::size_t kSetupMinReps = 5;
constexpr std::size_t kSetupMaxReps = 25;
constexpr double kSetupBudgetS = 1.0;
/// Passes of each kind a run makes even when --seconds has elapsed.
constexpr std::size_t kMinPasses = 3;
/// No new pass starts after this many seconds, whatever --seconds says,
/// so a run always ends well inside its time limit.
constexpr double kHardStopS = 120.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = ".bench_build/perfbench-data";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--data-dir DIR]\n"
            << "workloads:";
  for (const std::string& name : workload_names()) std::cerr << ' ' << name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--data-dir") {
        args.data_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

template <class F>
std::vector<double> collect(const std::vector<Pass>& passes, F field) {
  std::vector<double> out;
  out.reserve(passes.size());
  for (const Pass& pass : passes) out.push_back(field(pass));
  return out;
}

std::map<std::string, double> end_to_end(const std::vector<double>& setups,
                                         const Pass& reference,
                                         const std::vector<Pass>& passes) {
  std::map<std::string, double> m;
  m["setup_s"] = median(setups) +
                 median(collect(passes, [](const Pass& p) {
                   return p.connect_s;
                 }));
  m["run_s"] = median(collect(passes, [](const Pass& p) { return p.run_s; }));
  m["sessions_per_s"] = median(collect(
      passes, [](const Pass& p) { return p.sessions / p.run_s; }));
  m["jobs_migrated_per_s"] = median(collect(
      passes, [](const Pass& p) { return p.migrations / p.run_s; }));
  m["events_per_s"] = median(
      collect(passes, [](const Pass& p) { return p.events / p.run_s; }));
  m["cmax_over_lb"] = reference.cmax / reference.lower_bound;
  m["response_p99_vt"] = reference.response_p99;
  m["response_mean_vt"] = reference.response_mean;
  std::vector<double> session_us;
  for (const Pass& pass : passes) {
    session_us.insert(session_us.end(), pass.session_us.begin(),
                      pass.session_us.end());
  }
  // The p99 needs ten samples beyond it; with fewer samples (one per pass
  // on the workloads without a per-session clock) report the highest
  // percentile that has them, never below the median.
  const double tail_q = std::clamp(
      1.0 - 10.0 / static_cast<double>(session_us.size()), 0.5, 0.99);
  m["session_p50_us"] = quantile(session_us, 0.5);
  m["session_p99_us"] = quantile(session_us, tail_q);
  m["peak_rss_mb"] = peak_rss_mb();
  m["failed_ratio"] = reference.wasted / reference.attempted;
  return m;
}

std::map<std::string, double> per_layer(const std::vector<Pass>& traced,
                                        const std::vector<Pass>& untraced) {
  std::map<std::string, double> m;
  for (const Metric& metric : kPerLayer) {
    const std::string name = metric.name;
    m[name] = median(collect(traced, [&](const Pass& p) {
      const auto it = p.layer.find(name);
      return it == p.layer.end() ? 0.0 : it->second;
    }));
  }
  m["where.other_s"] = median(collect(traced, [](const Pass& p) {
    double other = p.run_s;
    for (const auto& row : p.where) other -= row.second;
    return other;
  }));
  const auto run_s = [](const Pass& p) { return p.run_s; };
  m["trace.overhead_ratio"] =
      median(collect(traced, run_s)) / median(collect(untraced, run_s));
  return m;
}

/// The "where run_s went" table of the traced passes: each row's median,
/// its share of the median traced run_s, then the residual and the
/// tracing overhead.
void print_where(const std::string& workload, const std::vector<Pass>& traced,
                 const std::map<std::string, double>& layer) {
  const double run_s =
      median(collect(traced, [](const Pass& p) { return p.run_s; }));
  std::printf("where run_s went (%s, traced, median of %zu passes)\n",
              workload.c_str(), traced.size());
  std::printf("  %-22s %12s %8s\n", "row", "seconds", "share");
  const auto row = [&](const std::string& name, double seconds) {
    std::printf("  %-22s %12.6f %7.2f%%\n", name.c_str(), seconds,
                100.0 * seconds / run_s);
  };
  for (std::size_t k = 0; k < traced.front().where.size(); ++k) {
    const std::string& name = traced.front().where[k].first;
    row(name, median(collect(traced, [&](const Pass& p) {
          return p.where[k].second;
        })));
  }
  row("other_s", layer.at("where.other_s"));
  row("run_s", run_s);
  std::printf("  trace.overhead_ratio %.4f (traced run_s / untraced run_s)\n",
              layer.at("trace.overhead_ratio"));
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& declared,
                  const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const Metric& metric : declared) {
    double value = values.at(metric.name);
    if (!std::isfinite(value)) value = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", metric.name, value, metric.unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& args) {
  std::filesystem::create_directories(args.data_dir);
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, args.data_dir);

  std::vector<double> setups;
  double setup_total = 0.0;
  while (setups.size() < kSetupMinReps ||
         (setups.size() < kSetupMaxReps && setup_total < kSetupBudgetS)) {
    setups.push_back(workload->setup());
    setup_total += setups.back();
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto account = [&](const Pass& pass, const std::string& expected) {
    ++attempted;
    bool ok = pass.errors.empty();
    for (const std::string& error : pass.errors) {
      std::cerr << "perfbench: check failed: " << error << "\n";
    }
    if (pass.digest != expected) {
      std::cerr << "perfbench: check failed: outputs differ from the "
                   "warm-up pass\n";
      ok = false;
    }
    if (!ok) ++failed;
  };

  // Warm-up: fills caches and lazy state; its outputs are the reference
  // every timed pass must reproduce byte for byte.
  const Pass warmup = workload->pass(false);
  account(warmup, warmup.digest);

  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  const auto start = Clock::now();
  for (;;) {
    const double elapsed = seconds_since(start);
    const bool enough = untraced.size() >= kMinPasses &&
                        (!args.trace || traced.size() >= kMinPasses);
    if ((elapsed >= args.seconds && enough) || elapsed >= kHardStopS) break;
    const bool decorate = args.trace && traced.size() < untraced.size();
    Pass pass = workload->pass(decorate);
    account(pass, warmup.digest);
    std::fprintf(stderr, "pass %zu%s: run_s %.6f\n",
                 untraced.size() + traced.size(), decorate ? " traced" : "",
                 pass.run_s);
    (decorate ? traced : untraced).push_back(std::move(pass));
  }

  if (untraced.empty() || (args.trace && traced.empty())) {
    throw std::runtime_error("no pass finished within the time limit");
  }
  const Pass& reference = untraced.front();
  std::printf("workload %s seed %llu: %zu untraced + %zu traced passes, "
              "%.0f sessions, %.0f migrations per pass\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), untraced.size(),
              traced.size(), reference.sessions, reference.migrations);
  if (args.trace) {
    const std::map<std::string, double> layer = per_layer(traced, untraced);
    print_where(args.workload, traced, layer);
    print_result(failed == 0, attempted, failed, kPerLayer, layer);
  } else {
    print_result(failed == 0, attempted, failed, kEndToEnd,
                 end_to_end(setups, reference, untraced));
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
