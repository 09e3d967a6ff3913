#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "core/generators.hpp"
#include "core/instance_store.hpp"
#include "core/lower_bounds.hpp"
#include "core/schedule.hpp"
#include "des/engine.hpp"
#include "dist/checkpoint.hpp"
#include "dist/churn.hpp"
#include "dist/exchange_engine.hpp"
#include "dist/open_system/arrival.hpp"
#include "dist/open_system/open_checkpoint.hpp"
#include "dist/open_system/open_engine.hpp"
#include "dist/open_system/placement.hpp"
#include "dist/parallel_exchange_engine.hpp"
#include "dist/selector_registry.hpp"
#include "dist/transport_runner.hpp"
#include "layers.hpp"
#include "net/frame.hpp"
#include "net/network.hpp"
#include "net/socket_transport.hpp"
#include "net/transport.hpp"
#include "pairwise/greedy_pair_balance.hpp"
#include "pairwise/kernel_registry.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace perfbench {
namespace {

using dlb::Cost;
using dlb::GroupId;
using dlb::Instance;
using dlb::JobId;
using dlb::MachineId;
using dlb::Schedule;

/// Threads of the parallel engine's pool: the 4-core machine the
/// benchmark was sized on.
constexpr std::size_t kThreads = 4;
/// Frames the fleet transport decorators keep for the codec microloop.
constexpr std::size_t kCapturedFrames = 4096;

const dlb::pairwise::PairKernel& dlb2c_kernel() {
  return dlb::pairwise::kernel_registry().get("dlb2c");
}

const dlb::dist::PeerSelector& uniform_selector() {
  return dlb::dist::selector_registry().get("uniform");
}

/// Sub-seeds so every generated input draws from its own stream.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t domain) {
  return dlb::stats::Rng::stream(seed, domain)();
}

std::string bits(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return std::to_string(out);
}

void expect(Pass& pass, bool ok, const std::string& what) {
  if (!ok) pass.errors.push_back(what);
}

/// Batch response times of a closed run: every job is released at time 0
/// and its machine returns it at the machine's completion time, so a job's
/// response is C(its machine). Rows are (load, jobs) per machine; the p99
/// is the nearest-rank percentile over jobs.
void batch_response(std::vector<std::pair<Cost, std::size_t>> rows,
                    Pass& pass) {
  double sum = 0.0;
  std::size_t jobs = 0;
  for (const auto& [load, count] : rows) {
    sum += load * static_cast<double>(count);
    jobs += count;
  }
  if (jobs == 0) return;
  pass.response_mean = sum / static_cast<double>(jobs);
  std::sort(rows.begin(), rows.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(jobs)));
  std::size_t seen = 0;
  for (const auto& [load, count] : rows) {
    seen += count;
    if (seen >= rank) {
      pass.response_p99 = load;
      break;
    }
  }
}

/// Cmax recomputed from the assignment alone. Incremental load sums
/// depend on the order of moves in the last ulp, so the comparison with
/// the engine's Cmax allows a relative 1e-9.
bool cmax_matches(const Schedule& schedule, Cost reported) {
  const Instance& instance = schedule.instance();
  std::vector<Cost> loads(instance.num_machines(), 0.0);
  for (JobId j = 0; j < instance.num_jobs(); ++j) {
    const MachineId i = schedule.machine_of(j);
    if (i != dlb::kUnassigned) loads[i] += instance.cost(i, j);
  }
  const Cost cmax = *std::max_element(loads.begin(), loads.end());
  return std::abs(cmax - reported) <= 1e-9 * std::max(1.0, reported);
}

std::size_t assigned_jobs(const Schedule& schedule) {
  std::size_t count = 0;
  for (JobId j = 0; j < schedule.num_jobs(); ++j) {
    if (schedule.machine_of(j) != dlb::kUnassigned) ++count;
  }
  return count;
}

/// ratio_sort.ns_per_job: sort_by_group_ratio_flat over the pooled jobs
/// of same-cluster machine pairs drawn from `schedule`, repeated for
/// about 50 ms. Only the sort calls are timed.
double ratio_sort_ns_per_job(const Schedule& schedule, std::uint64_t seed) {
  const Instance& instance = schedule.instance();
  if (instance.num_groups() != 2) return 0.0;
  dlb::stats::Rng rng(seed);
  std::vector<std::pair<GroupId, std::vector<JobId>>> pools;
  const std::size_t m = instance.num_machines();
  while (pools.size() < 256) {
    const auto a = static_cast<MachineId>(rng.below(m));
    const auto b = static_cast<MachineId>(rng.below(m));
    if (a == b || instance.group_of(a) != instance.group_of(b)) continue;
    pools.emplace_back(instance.group_of(a),
                       dlb::pairwise::pooled_jobs(schedule, a, b));
  }
  dlb::pairwise::PairScratch& scratch = dlb::pairwise::pair_scratch();
  std::vector<JobId> work;
  std::int64_t sort_ns = 0;
  std::uint64_t jobs = 0;
  const auto start = Clock::now();
  while (seconds_since(start) < 0.05) {
    for (const auto& [own, pool] : pools) {
      work = pool;
      const std::int64_t t0 = now_ns();
      dlb::pairwise::sort_by_group_ratio_flat(
          instance, own, static_cast<GroupId>(1 - own), work, scratch);
      sort_ns += now_ns() - t0;
      jobs += work.size();
    }
  }
  return jobs == 0 ? 0.0
                   : static_cast<double>(sort_ns) / static_cast<double>(jobs);
}

/// The kernel and selector a pass hands the engine: the plain registry
/// objects, or their timing decorators in a traced pass.
struct Layers {
  explicit Layers(bool traced_pass) : traced(traced_pass) {}

  [[nodiscard]] const dlb::pairwise::PairKernel& kernel() const {
    return traced ? static_cast<const dlb::pairwise::PairKernel&>(timed_kernel)
                  : dlb2c_kernel();
  }
  [[nodiscard]] const dlb::dist::PeerSelector& selector() const {
    return traced ? static_cast<const dlb::dist::PeerSelector&>(timed_selector)
                  : uniform_selector();
  }

  /// kernel.* and selector.* layer metrics.
  void report(Pass& pass) const {
    const CallTotals k = timed_kernel.totals();
    const CallTotals s = timed_selector.totals();
    const double calls = static_cast<double>(k.calls);
    pass.layer["kernel.calls"] = calls;
    pass.layer["kernel.busy_s"] = k.busy_s;
    pass.layer["kernel.us_per_call_p50"] = quantile(k.call_us, 0.5);
    pass.layer["kernel.us_per_call_p99"] = quantile(k.call_us, 0.99);
    pass.layer["kernel.changed_ratio"] =
        k.calls == 0 ? 0.0 : static_cast<double>(k.changed) / calls;
    pass.layer["kernel.pool_jobs_mean"] =
        k.calls == 0 ? 0.0 : static_cast<double>(k.pool_jobs) / calls;
    pass.layer["selector.calls"] = static_cast<double>(s.calls);
    pass.layer["selector.busy_s"] = s.busy_s;
  }

  bool traced;
  TimedKernel timed_kernel{dlb2c_kernel()};
  TimedSelector timed_selector{uniform_selector()};
};

// ---------------------------------------------------------------------------
// Closed workloads: the instance file carries the initial distribution; a
// pass opens it, builds the schedule, bounds OPT, runs an exchange engine
// to its exchange budget and reports Cmax over the bound.

/// Two clusters of m1 and m2 machines; costs U[1, 1000] per cluster (the
/// paper's Section VII-B workload).
struct ClosedShape {
  std::size_t m1 = 0;
  std::size_t m2 = 0;
  std::size_t jobs = 0;
};

/// What an engine run adds to a pass beyond the shared closed path.
struct EngineRun {
  Cost final_makespan = 0.0;
  std::size_t churn_pending = 0;
  /// Traced: the kernel row of the where table — kernel busy time, divided
  /// by the threads that shared it (an estimate of its wall-time share).
  double kernel_row_s = 0.0;
  const char* kernel_row = "kernel";
  double selector_s = 0.0;
  double checkpoint_s = 0.0;
};

class ClosedWorkload : public Workload {
 public:
  ClosedWorkload(std::uint64_t seed, const std::string& dir,
                 const std::string& name, ClosedShape shape)
      : seed_(seed),
        shape_(shape),
        path_(dir + "/" + name + ".dlbi") {}

  double setup() override {
    const auto start = Clock::now();
    const Instance instance = dlb::gen::two_cluster_uniform(
        shape_.m1, shape_.m2, shape_.jobs, 1.0, 1000.0, sub_seed(seed_, 1));
    const dlb::Assignment initial =
        dlb::gen::random_assignment(instance, sub_seed(seed_, 2));
    dlb::core::save_dlbi(instance, path_, &initial);
    setup_inputs(instance);
    return seconds_since(start);
  }

  Pass pass(bool traced) override {
    Pass pass;
    const auto start = Clock::now();
    const dlb::core::InstanceStore store = dlb::core::load_instance(path_);
    const double open_s = seconds_since(start);
    const Instance& instance = store.instance();

    const auto touch_start = Clock::now();
    Schedule schedule(instance, store.initial_assignment());
    const double touch_s = seconds_since(touch_start);

    const auto lb_start = Clock::now();
    pass.lower_bound = dlb::makespan_lower_bound(instance);
    const double lb_s = seconds_since(lb_start);

    Layers layers(traced);
    const auto engine_start = Clock::now();
    const EngineRun run = run_engine(schedule, layers, pass);
    pass.engine_s = seconds_since(engine_start) - run.checkpoint_s;

    pass.cmax = run.final_makespan;
    std::vector<std::pair<Cost, std::size_t>> rows;
    rows.reserve(instance.num_machines());
    for (MachineId i = 0; i < instance.num_machines(); ++i) {
      rows.emplace_back(schedule.load(i), schedule.jobs_on(i).size());
    }
    batch_response(std::move(rows), pass);
    pass.run_s = seconds_since(start);

    // Checks and bookkeeping, outside run_s.
    pass.session_us.push_back(pass.sessions > 0
                                  ? pass.engine_s * 1e6 / pass.sessions
                                  : 0.0);
    std::ostringstream digest;
    digest << pass.digest << " fp=" << schedule.fingerprint()
           << " lb=" << bits(pass.lower_bound)
           << " rmean=" << bits(pass.response_mean)
           << " rp99=" << bits(pass.response_p99);
    pass.digest = digest.str();
    expect(pass, store.kind() == dlb::core::StorageKind::kMapped,
           "the .dlbi file did not open as a mapped store");
    expect(pass,
           assigned_jobs(schedule) + run.churn_pending == instance.num_jobs(),
           "job conservation: assigned + churn-pending != all jobs");
    expect(pass, run.final_makespan == schedule.makespan(),
           "reported Cmax differs from the schedule's Cmax");
    expect(pass, cmax_matches(schedule, run.final_makespan),
           "Cmax recomputed from the final assignment differs");
    expect(pass, pass.lower_bound <= run.final_makespan,
           "lower bound exceeds Cmax");

    if (traced) {
      layers.report(pass);
      pass.layer["store.open_s"] = open_s;
      pass.layer["store.first_touch_s"] = touch_s;
      pass.layer["store.mapped_mb"] =
          static_cast<double>(store.mapped_bytes()) / (1024.0 * 1024.0);
      pass.layer["lower_bound.s"] = lb_s;
      const double self_s =
          pass.engine_s - run.kernel_row_s - run.selector_s;
      pass.layer["engine.run_s"] = pass.engine_s;
      pass.layer["engine.self_s"] = self_s;
      pass.layer["engine.serial_share"] =
          (pass.engine_s - run.kernel_row_s) / pass.engine_s;
      pass.layer["ratio_sort.ns_per_job"] =
          ratio_sort_ns_per_job(schedule, sub_seed(seed_, 9));
      pass.where = {{"store open", open_s},
                    {"first touch", touch_s},
                    {"lower bound", lb_s},
                    {"engine self", self_s},
                    {run.kernel_row, run.kernel_row_s},
                    {"selector", run.selector_s},
                    {"checkpoint", run.checkpoint_s}};
    }
    return pass;
  }

 protected:
  /// Builds the workload's other generated inputs (plans) from the seed.
  virtual void setup_inputs(const Instance& instance) { (void)instance; }
  virtual EngineRun run_engine(Schedule& schedule, const Layers& layers,
                               Pass& pass) = 0;

  std::uint64_t seed_;
  ClosedShape shape_;
  std::string path_;
};

/// closed_parallel: large pooled sets (200 jobs per machine) on the
/// parallel epoch engine, so the kernel and its ratio sort dominate the
/// execute phase and the mapping is big enough for open and first touch
/// to show.
class ClosedParallel final : public ClosedWorkload {
 public:
  ClosedParallel(std::uint64_t seed, const std::string& dir)
      : ClosedWorkload(seed, dir, "closed_parallel",
                       {600, 300, 180'000}),
        pool_(kThreads) {}

 protected:
  EngineRun run_engine(Schedule& schedule, const Layers& layers,
                       Pass& pass) override {
    dlb::dist::ParallelEngineOptions options;
    options.max_exchanges = 40 * schedule.num_machines();
    options.pool = &pool_;
    const dlb::dist::ParallelRunResult result =
        dlb::dist::ParallelExchangeEngine(layers.kernel(), layers.selector())
            .run(schedule, options, sub_seed(seed_, 3));

    pass.sessions = static_cast<double>(result.exchanges);
    pass.migrations = static_cast<double>(result.migrations);
    pass.events = pass.sessions;
    pass.attempted = static_cast<double>(result.exchanges + result.conflicts);
    pass.wasted = static_cast<double>(result.conflicts + result.exchanges -
                                      result.changed_exchanges);
    std::ostringstream digest;
    digest << result.to_json().dump() << " changed=" << result.changed_exchanges
           << " epochs=" << result.epochs << " conflicts=" << result.conflicts
           << " retries=" << result.peer_retries;
    pass.digest = digest.str();

    EngineRun run;
    run.final_makespan = result.final_makespan;
    if (layers.traced) {
      const CallTotals k = layers.timed_kernel.totals();
      run.kernel_row_s = k.busy_s / static_cast<double>(pool_.num_threads());
      run.kernel_row = "kernel/threads (est.)";
      run.selector_s = layers.timed_selector.totals().busy_s;
      pass.layer["engine.epochs"] = static_cast<double>(result.epochs);
      pass.layer["engine.conflict_ratio"] = pass.attempted > 0
          ? static_cast<double>(result.conflicts) / pass.attempted
          : 0.0;
    }
    return run;
  }

 private:
  dlb::parallel::ThreadPool pool_;
};

/// closed_seq_churn: the paper's sequential engine on 16-job pair pools
/// under a random churn plan, checkpointing every 2 epochs and saving and
/// reloading the final checkpoint file, so per-exchange engine overhead,
/// churn and checkpointing dominate instead of the kernel.
class ClosedSeqChurn final : public ClosedWorkload {
 public:
  ClosedSeqChurn(std::uint64_t seed, const std::string& dir)
      : ClosedWorkload(seed, dir, "closed_seq_churn",
                       {2000, 1000, 24'000}),
        checkpoint_path_(dir + "/closed_seq_churn.ckpt") {}

 protected:
  static constexpr std::uint64_t kEpochs = 20;

  /// Churn events fall in the first half of the run; the second half
  /// rebalances after them, so the final Cmax reflects the balancer more
  /// than where the last crash happened to land.
  void setup_inputs(const Instance& instance) override {
    plan_ = dlb::dist::ChurnPlan::random(instance.num_machines(), kEpochs / 2,
                                         0.3, 0.3, 0.6, sub_seed(seed_, 4));
  }

  EngineRun run_engine(Schedule& schedule, const Layers& layers,
                       Pass& pass) override {
    dlb::dist::Checkpoint checkpoint;
    dlb::dist::EngineOptions options;
    options.max_exchanges = kEpochs * schedule.num_machines();
    options.churn = &plan_;
    options.checkpoint_every = 2;
    options.checkpoint_out = &checkpoint;
    dlb::stats::Rng rng(sub_seed(seed_, 5));
    const dlb::dist::RunResult result =
        dlb::dist::ExchangeEngine(layers.kernel(), layers.selector())
            .run(schedule, options, rng);

    const auto save_start = Clock::now();
    checkpoint.save_file(checkpoint_path_);
    const double save_s = seconds_since(save_start);
    const auto load_start = Clock::now();
    const dlb::dist::Checkpoint loaded =
        dlb::dist::Checkpoint::load_file(checkpoint_path_);
    const double load_s = seconds_since(load_start);

    pass.sessions = static_cast<double>(result.exchanges);
    pass.migrations = static_cast<double>(result.migrations);
    pass.events = pass.sessions;
    pass.attempted = pass.sessions;
    pass.wasted =
        static_cast<double>(result.exchanges - result.changed_exchanges);
    std::ostringstream digest;
    digest << result.to_json().dump() << " changed=" << result.changed_exchanges
           << " epochs=" << result.epochs
           << " checkpoint_epochs=" << checkpoint.epochs;
    pass.digest = digest.str();
    expect(pass, checkpoint.epochs > 0, "no checkpoint was taken");
    expect(pass,
           loaded.epochs == checkpoint.epochs &&
               loaded.assignment == checkpoint.assignment &&
               loaded.loads == checkpoint.loads &&
               loaded.live == checkpoint.live &&
               loaded.order == checkpoint.order &&
               loaded.churn_queue == checkpoint.churn_queue,
           "checkpoint file did not reload to the saved checkpoint");

    EngineRun run;
    run.final_makespan = result.final_makespan;
    run.churn_pending = result.churn_pending;
    run.checkpoint_s = save_s + load_s;
    if (layers.traced) {
      run.kernel_row_s = layers.timed_kernel.totals().busy_s;
      run.selector_s = layers.timed_selector.totals().busy_s;
      pass.layer["engine.epochs"] = static_cast<double>(result.epochs);
      pass.layer["churn.orphaned"] =
          static_cast<double>(result.churn_orphaned);
      pass.layer["churn.redispatched"] =
          static_cast<double>(result.churn_redispatched);
      pass.layer["checkpoint.save_s"] = save_s;
      pass.layer["checkpoint.load_s"] = load_s;
      pass.layer["checkpoint.kb"] =
          static_cast<double>(std::filesystem::file_size(checkpoint_path_)) /
          1024.0;
    }
    return run;
  }

 private:
  std::string checkpoint_path_;
  dlb::dist::ChurnPlan plan_;
};

// ---------------------------------------------------------------------------

/// open_serve: Poisson arrivals at about 0.75 of capacity, two-choices
/// placement and budgeted DLB2C repair bursts. The event loop and the
/// placement dominate; the kernel only sees short waiting queues and the
/// lower bound is not on the path.
class OpenServe final : public Workload {
 public:
  OpenServe(std::uint64_t seed, const std::string& dir)
      : seed_(seed),
        path_(dir + "/open_serve.dlbi"),
        placement_(dlb::dist::make_placement("two_choices:2")) {}

  double setup() override {
    const auto start = Clock::now();
    const Instance instance = dlb::gen::two_cluster_uniform(
        kM1, kM2, kJobs, kLo, kHi, sub_seed(seed_, 1));
    dlb::core::save_dlbi(instance, path_);
    // Capacity: machines over the mean cost of a job on a random machine.
    const double capacity =
        static_cast<double>(kM1 + kM2) / (0.5 * (kLo + kHi));
    plan_ = dlb::dist::ArrivalPlan::poisson(0.75 * capacity,
                                            sub_seed(seed_, 6));
    last_arrival_ = plan_.arrival_times(kJobs).back();
    return seconds_since(start);
  }

  Pass pass(bool traced) override {
    Pass pass;
    const auto start = Clock::now();
    const dlb::core::InstanceStore store = dlb::core::load_instance(path_);
    const double open_s = seconds_since(start);
    const Instance& instance = store.instance();

    const auto touch_start = Clock::now();
    Schedule schedule(instance);
    const double touch_s = seconds_since(touch_start);

    Layers layers(traced);
    TimedPlacement timed_placement(*placement_);
    dlb::dist::OpenSystemOptions options;
    options.arrivals = &plan_;
    options.placement = traced ? &timed_placement : placement_.get();
    options.repair_every = 25.0;
    options.repair_budget = 64;
    // The engine's snapshot at its final event is the one outside view of
    // how many repair sessions moved a job. The event count is learnt on
    // the first pass and is the same on every pass of a seed.
    dlb::dist::OpenCheckpoint final_state;
    if (events_ > 0) {
      options.checkpoint_every_events = events_;
      options.checkpoint_out = &final_state;
    }
    const auto engine_start = Clock::now();
    const dlb::dist::OpenRunReport report =
        dlb::dist::OpenSystemEngine(layers.kernel(), layers.selector())
            .run(schedule, options, sub_seed(seed_, 7));
    pass.engine_s = seconds_since(engine_start);
    pass.run_s = seconds_since(start);

    const bool snapshot = events_ > 0;
    if (!snapshot) events_ = report.events;
    pass.sessions = static_cast<double>(report.exchanges);
    pass.migrations = static_cast<double>(report.migrations);
    pass.events = static_cast<double>(report.events);
    pass.attempted = pass.sessions;
    pass.wasted =
        snapshot ? static_cast<double>(report.exchanges -
                                       final_state.repair_changed)
                 : 0.0;
    pass.cmax = report.end_time;
    // Every job arrives before it completes, so the last arrival bounds
    // the drain time from below.
    pass.lower_bound = last_arrival_;
    pass.response_mean = report.response_mean;
    pass.response_p99 = report.response_p99;
    pass.session_us.push_back(
        pass.sessions > 0 ? pass.engine_s * 1e6 / pass.sessions : 0.0);
    pass.digest = report.to_json().dump();

    const std::uint64_t n = instance.num_jobs();
    expect(pass, store.kind() == dlb::core::StorageKind::kMapped,
           "the .dlbi file did not open as a mapped store");
    expect(pass,
           report.converged && !report.halted && report.jobs_submitted == n &&
               report.jobs_completed == n && report.jobs_in_service == 0 &&
               report.jobs_waiting == 0,
           "open_serve did not drain every job");
    expect(pass, assigned_jobs(schedule) == 0,
           "jobs left on queues after draining");
    expect(pass, report.end_time >= last_arrival_,
           "drained before the last arrival");
    expect(pass,
           !snapshot || (final_state.events == report.events &&
                         final_state.completed == n),
           "final snapshot was not taken at the last event");

    if (traced) {
      layers.report(pass);
      const CallTotals placement = timed_placement.totals();
      const CallTotals kernel = layers.timed_kernel.totals();
      const CallTotals selector = layers.timed_selector.totals();
      const double loop_self_s =
          pass.engine_s - placement.busy_s - kernel.busy_s - selector.busy_s;
      pass.layer["store.open_s"] = open_s;
      pass.layer["store.first_touch_s"] = touch_s;
      pass.layer["store.mapped_mb"] =
          static_cast<double>(store.mapped_bytes()) / (1024.0 * 1024.0);
      pass.layer["engine.run_s"] = pass.engine_s;
      pass.layer["engine.self_s"] = loop_self_s;
      pass.layer["engine.serial_share"] =
          (pass.engine_s - kernel.busy_s) / pass.engine_s;
      pass.layer["open.placement.calls"] =
          static_cast<double>(placement.calls);
      pass.layer["open.placement.busy_s"] = placement.busy_s;
      pass.layer["open.loop_self_s"] = loop_self_s;
      pass.layer["open.ns_per_event"] = pass.engine_s * 1e9 / pass.events;
      pass.layer["open.repair_bursts"] =
          static_cast<double>(report.repair_bursts);
      pass.layer["open.repair_exchanges"] =
          static_cast<double>(report.exchanges);
      pass.where = {{"store open", open_s},
                    {"first touch", touch_s},
                    {"engine self", loop_self_s},
                    {"kernel", kernel.busy_s},
                    {"selector", selector.busy_s},
                    {"placement", placement.busy_s}};
    }
    return pass;
  }

 private:
  static constexpr std::size_t kM1 = 128;
  static constexpr std::size_t kM2 = 64;
  static constexpr std::size_t kJobs = 300'000;
  static constexpr Cost kLo = 1.0;
  static constexpr Cost kHi = 100.0;

  std::uint64_t seed_;
  std::string path_;
  std::unique_ptr<dlb::dist::PlacementPolicy> placement_;
  dlb::dist::ArrivalPlan plan_;
  double last_arrival_ = 0.0;
  std::uint64_t events_ = 0;
};

// ---------------------------------------------------------------------------

/// fleet_unix: the dlbd fleet path without launching processes — two
/// SocketTransport hosts in this process, connected over Unix sockets and
/// polled alternately from one thread, run the lockstep TransportRunner
/// protocol. The only workload that exercises the frame codec, the socket
/// backend and the protocol. Its outcome must equal, bit for bit, a
/// SimTransport run of the same plan.
class FleetUnix final : public Workload {
 public:
  FleetUnix(std::uint64_t seed, const std::string& dir)
      : seed_(seed), dir_(dir), path_(dir + "/fleet_unix.dlbi") {}

  double setup() override {
    const auto start = Clock::now();
    const Instance instance = dlb::gen::two_cluster_uniform(
        kM1, kM2, kJobs, 1.0, 1000.0, sub_seed(seed_, 1));
    const dlb::Assignment initial =
        dlb::gen::random_assignment(instance, sub_seed(seed_, 2));
    dlb::core::save_dlbi(instance, path_, &initial);

    // The reference run: the same plan over the deterministic simulated
    // transport.
    Schedule replica(instance, initial);
    dlb::des::Engine engine;
    dlb::net::ConstantLatency latency(0.01);
    dlb::stats::Rng rng = dlb::stats::Rng::stream(sub_seed(seed_, 8), 0);
    dlb::net::Network network(engine, latency, rng);
    dlb::net::SimTransport transport(engine, network, instance.num_machines());
    dlb::dist::TransportRunner runner(replica, transport,
                                      runner_options(dlb2c_kernel()));
    runner.start();
    runner.run_to_completion();
    ref_jobs_.clear();
    ref_loads_.clear();
    for (MachineId i = 0; i < instance.num_machines(); ++i) {
      ref_jobs_.push_back(runner.sorted_jobs(i));
      ref_loads_.push_back(runner.canonical_load(i));
    }
    ref_exchanges_ = runner.counters().exchanges;
    ref_migrations_ = runner.counters().migrations;
    return seconds_since(start);
  }

  Pass pass(bool traced) override {
    Pass pass;
    const MachineId split = static_cast<MachineId>((kM1 + kM2) / 2);
    std::vector<dlb::net::HostSpec> hosts(2);
    hosts[0] = {"unix:" + dir_ + "/fleet_a.sock", 0, split};
    hosts[1] = {"unix:" + dir_ + "/fleet_b.sock", split,
                static_cast<MachineId>(kM1 + kM2)};
    dlb::net::SocketTransportOptions options_a;
    options_a.hosts = hosts;
    dlb::net::SocketTransportOptions options_b = options_a;
    options_b.self = 1;

    // Set-up paid per pass: bind, then connect the mesh. The higher rank
    // dials first so one thread can complete both handshakes.
    const auto connect_start = Clock::now();
    dlb::net::SocketTransport socket_a(options_a);
    dlb::net::SocketTransport socket_b(options_b);
    socket_b.connect();
    socket_a.connect();
    pass.connect_s = seconds_since(connect_start);

    TimedTransport timed_a(socket_a, kCapturedFrames);
    TimedTransport timed_b(socket_b, kCapturedFrames);
    dlb::net::Transport& transport_a =
        traced ? static_cast<dlb::net::Transport&>(timed_a) : socket_a;
    dlb::net::Transport& transport_b =
        traced ? static_cast<dlb::net::Transport&>(timed_b) : socket_b;

    const auto start = Clock::now();
    const dlb::core::InstanceStore store = dlb::core::load_instance(path_);
    const double open_s = seconds_since(start);
    const Instance& instance = store.instance();

    const auto touch_start = Clock::now();
    Schedule replica_a(instance, store.initial_assignment());
    Schedule replica_b(instance, store.initial_assignment());
    const double touch_s = seconds_since(touch_start);

    Layers layers(traced);
    const auto engine_start = Clock::now();
    dlb::dist::TransportRunner runner_a(replica_a, transport_a,
                                        runner_options(layers.kernel()));
    dlb::dist::TransportRunner runner_b(replica_b, transport_b,
                                        runner_options(layers.kernel()));
    runner_a.start();
    runner_b.start();
    // Session latency: wall time between successive watermark advances.
    std::uint64_t mark = 0;
    auto mark_time = Clock::now();
    bool stalled = false;
    while (!(runner_a.done() && runner_b.done())) {
      transport_a.poll(0.0);
      transport_b.poll(0.0);
      const std::uint64_t now_mark =
          std::max(runner_a.watermark(), runner_b.watermark());
      if (now_mark != mark) {
        const auto now = Clock::now();
        const double gap_us =
            std::chrono::duration<double, std::micro>(now - mark_time)
                .count() /
            static_cast<double>(now_mark - mark);
        for (std::uint64_t k = mark; k < now_mark; ++k) {
          pass.session_us.push_back(gap_us);
        }
        mark = now_mark;
        mark_time = now;
      }
      if (seconds_since(engine_start) > 60.0) {
        stalled = true;
        break;
      }
    }
    pass.engine_s = seconds_since(engine_start);

    const auto lb_start = Clock::now();
    pass.lower_bound = dlb::makespan_lower_bound(instance);
    const double lb_s = seconds_since(lb_start);

    const auto owner = [&](MachineId i) -> const dlb::dist::TransportRunner& {
      return i < split ? runner_a : runner_b;
    };
    std::vector<std::pair<Cost, std::size_t>> rows;
    for (MachineId i = 0; i < instance.num_machines(); ++i) {
      rows.emplace_back(owner(i).canonical_load(i),
                        owner(i).sorted_jobs(i).size());
    }
    for (const auto& row : rows) pass.cmax = std::max(pass.cmax, row.first);
    batch_response(rows, pass);
    const auto& ca = runner_a.counters();
    const auto& cb = runner_b.counters();
    pass.run_s = seconds_since(start);

    const double total = static_cast<double>(runner_a.total());
    pass.sessions = total;
    pass.migrations = static_cast<double>(ca.migrations + cb.migrations);
    pass.events = static_cast<double>(ca.frames_sent + cb.frames_sent);
    pass.attempted = total;
    pass.wasted = total - static_cast<double>(ca.exchanges + cb.exchanges);

    // Checks: bitwise equality with the simulated reference, job
    // conservation, Cmax recomputed from the job lists.
    expect(pass, !stalled, "fleet did not finish within 60 s");
    std::size_t jobs = 0;
    bool rows_match = true;
    Cost recomputed_cmax = 0.0;
    std::ostringstream digest;
    for (MachineId i = 0; i < instance.num_machines(); ++i) {
      const std::vector<JobId> held = owner(i).sorted_jobs(i);
      jobs += held.size();
      Cost load = 0.0;
      for (const JobId j : held) load += instance.cost(i, j);
      recomputed_cmax = std::max(recomputed_cmax, load);
      rows_match = rows_match && held == ref_jobs_[i] &&
                   bits(owner(i).canonical_load(i)) == bits(ref_loads_[i]);
      digest << bits(owner(i).canonical_load(i)) << ',';
    }
    digest << " exchanges=" << ca.exchanges + cb.exchanges
           << " migrations=" << ca.migrations + cb.migrations
           << " lb=" << bits(pass.lower_bound)
           << " rmean=" << bits(pass.response_mean)
           << " rp99=" << bits(pass.response_p99);
    pass.digest = digest.str();
    expect(pass, rows_match,
           "socket run differs from the SimTransport reference");
    expect(pass,
           ca.exchanges + cb.exchanges == ref_exchanges_ &&
               ca.migrations + cb.migrations == ref_migrations_,
           "exchange/migration counts differ from the reference");
    expect(pass, jobs == instance.num_jobs(),
           "job conservation: held jobs != all jobs");
    expect(pass, recomputed_cmax == pass.cmax,
           "Cmax recomputed from the job lists differs");
    expect(pass, pass.lower_bound <= pass.cmax, "lower bound exceeds Cmax");

    if (traced) {
      layers.report(pass);
      TransportStats net;
      for (const TimedTransport* t : {&timed_a, &timed_b}) {
        const TransportStats& s = t->stats();
        net.frames_sent += s.frames_sent;
        net.bytes_sent += s.bytes_sent;
        net.send_ns += s.send_ns;
        net.send_in_handler_ns += s.send_in_handler_ns;
        net.polls += s.polls;
        net.empty_polls += s.empty_polls;
        net.poll_ns += s.poll_ns;
        net.handler_ns += s.handler_ns;
      }
      const double kernel_s = layers.timed_kernel.totals().busy_s;
      const double handler_s = static_cast<double>(net.handler_ns) * 1e-9;
      const double poll_io_s =
          static_cast<double>(net.poll_ns - net.handler_ns) * 1e-9;
      const double send_s = static_cast<double>(net.send_ns) * 1e-9;
      const double protocol_s =
          handler_s - kernel_s -
          static_cast<double>(net.send_in_handler_ns) * 1e-9;
      pass.layer["store.open_s"] = open_s;
      pass.layer["store.first_touch_s"] = touch_s;
      pass.layer["store.mapped_mb"] =
          static_cast<double>(store.mapped_bytes()) / (1024.0 * 1024.0);
      pass.layer["lower_bound.s"] = lb_s;
      pass.layer["engine.run_s"] = pass.engine_s;
      pass.layer["engine.self_s"] = protocol_s;
      pass.layer["engine.serial_share"] =
          (pass.engine_s - kernel_s) / pass.engine_s;
      pass.layer["engine.epochs"] = static_cast<double>(kRounds);
      pass.layer["net.frames_sent"] = static_cast<double>(net.frames_sent);
      pass.layer["net.bytes_sent"] = static_cast<double>(net.bytes_sent);
      pass.layer["net.frames_per_session"] =
          static_cast<double>(net.frames_sent) / total;
      pass.layer["net.send_busy_s"] = send_s;
      pass.layer["net.poll_busy_s"] = poll_io_s;
      pass.layer["net.empty_polls"] = static_cast<double>(net.empty_polls);
      pass.layer["net.retries"] = static_cast<double>(ca.retries + cb.retries);
      pass.layer["net.duplicates"] =
          static_cast<double>(ca.duplicates_ignored + cb.duplicates_ignored);
      std::vector<dlb::net::Frame> frames = timed_a.captured();
      frames.insert(frames.end(), timed_b.captured().begin(),
                    timed_b.captured().end());
      frame_microloop(frames, pass);
      pass.where = {{"store open", open_s},
                    {"first touch", touch_s},
                    {"lower bound", lb_s},
                    {"engine self", protocol_s},
                    {"kernel", kernel_s},
                    {"network", poll_io_s + send_s}};
    }
    return pass;
  }

 private:
  static constexpr std::size_t kM1 = 64;
  static constexpr std::size_t kM2 = 32;
  static constexpr std::size_t kJobs = 16'000;
  static constexpr std::size_t kRounds = 100;

  [[nodiscard]] dlb::dist::TransportRunnerOptions runner_options(
      const dlb::pairwise::PairKernel& kernel) const {
    dlb::dist::TransportRunnerOptions options;
    options.kernel = &kernel;
    options.seed = sub_seed(seed_, 3);
    options.rounds = kRounds;
    return options;
  }

  /// frame.encode_ns / frame.decode_ns over the captured frame mix,
  /// repeated for about 50 ms each.
  static void frame_microloop(const std::vector<dlb::net::Frame>& frames,
                              Pass& pass) {
    if (frames.empty()) return;
    std::vector<std::vector<std::uint8_t>> wire(frames.size());
    std::uint64_t encoded = 0;
    auto start = Clock::now();
    while (seconds_since(start) < 0.05) {
      for (std::size_t k = 0; k < frames.size(); ++k) {
        wire[k] = dlb::net::encode_frame(frames[k]);
      }
      encoded += frames.size();
    }
    pass.layer["frame.encode_ns"] =
        seconds_since(start) * 1e9 / static_cast<double>(encoded);
    std::vector<dlb::net::Frame> back(frames.size());
    std::uint64_t decoded = 0;
    start = Clock::now();
    while (seconds_since(start) < 0.05) {
      for (std::size_t k = 0; k < wire.size(); ++k) {
        back[k] = dlb::net::decode_frame(wire[k].data(), wire[k].size());
      }
      decoded += wire.size();
    }
    pass.layer["frame.decode_ns"] =
        seconds_since(start) * 1e9 / static_cast<double>(decoded);
    expect(pass, back == frames, "frame codec round trip failed");
  }

  std::uint64_t seed_;
  std::string dir_;
  std::string path_;
  std::vector<std::vector<JobId>> ref_jobs_;
  std::vector<Cost> ref_loads_;
  std::uint64_t ref_exchanges_ = 0;
  std::uint64_t ref_migrations_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "closed_parallel", "closed_seq_churn", "open_serve", "fleet_unix"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& dir) {
  if (name == "closed_parallel") {
    return std::make_unique<ClosedParallel>(seed, dir);
  }
  if (name == "closed_seq_churn") {
    return std::make_unique<ClosedSeqChurn>(seed, dir);
  }
  if (name == "open_serve") return std::make_unique<OpenServe>(seed, dir);
  if (name == "fleet_unix") return std::make_unique<FleetUnix>(seed, dir);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
