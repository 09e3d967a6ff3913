#include "dist/open_system/open_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <ranges>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/cost_model.hpp"
#include "obs/metrics.hpp"

namespace dlb::dist {

namespace {

[[noreturn]] void reject(const char* field, const std::string& why) {
  throw std::invalid_argument("OpenSystemEngine: invalid OpenSystemOptions." +
                              std::string(field) + ": " + why);
}

/// reject for the resume field, as a CheckpointMismatch: the refused value
/// came from a checkpoint, not from an option.
[[noreturn]] void reject_resume(const std::string& why) {
  throw CheckpointMismatch(
      "OpenSystemEngine: invalid OpenSystemOptions.resume: " + why);
}

/// Purpose keys of the run seed's substreams. Mixing through splitmix64
/// keeps the domains statistically independent while every one stays a
/// pure function of (seed, domain) — the checkpoint only persists the two
/// generators that advance with the run.
enum SeedDomain : std::uint64_t {
  kPlaceDomain = 0,
  kRepairDomain = 1,
  kBurstDomain = 2,
  kServiceDomain = 3,
  kShuffleDomain = 4,
};

/// How many arrivals ahead the event loop requests a job's state. Arrival
/// order and times are fixed when the run starts, so the shuffled job that
/// arrives 16 admissions from now is already known; 8, 16, 32 and 64 all
/// helped on open_serve, and 16 most.
constexpr std::size_t kArrivalLookahead = 16;

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t domain) noexcept {
  std::uint64_t sm = seed + 0x9E3779B97F4A7C15ULL * (domain + 1);
  return stats::splitmix64(sm);
}

}  // namespace

stats::Json OpenRunReport::to_json() const {
  stats::Json doc = RunReport::to_json();
  doc["open_jobs_submitted"] = jobs_submitted;
  doc["open_jobs_completed"] = jobs_completed;
  doc["open_jobs_in_service"] = jobs_in_service;
  doc["open_jobs_waiting"] = jobs_waiting;
  doc["open_repair_bursts"] = repair_bursts;
  doc["open_events"] = events;
  doc["open_end_time"] = end_time;
  doc["open_response_mean"] = response_mean;
  doc["open_response_p50"] = response_p50;
  doc["open_response_p95"] = response_p95;
  doc["open_response_p99"] = response_p99;
  doc["open_queue_p50"] = queue_p50;
  doc["open_queue_p95"] = queue_p95;
  doc["open_queue_p99"] = queue_p99;
  doc["open_queue_max"] = queue_max;
  doc["open_halted"] = halted;
  return doc;
}

void OpenRunReport::print(std::ostream& out) const {
  RunReport::print(out);
  out << "jobs submitted  : " << jobs_submitted << "\n"
      << "jobs completed  : " << jobs_completed << "\n"
      << "repair bursts   : " << repair_bursts << "\n"
      << "events          : " << events << "\n"
      << "end time        : " << end_time << "\n"
      << "response mean   : " << response_mean << "\n"
      << "response p50    : " << response_p50 << "\n"
      << "response p95    : " << response_p95 << "\n"
      << "response p99    : " << response_p99 << "\n"
      << "queue p50       : " << queue_p50 << "\n"
      << "queue p95       : " << queue_p95 << "\n"
      << "queue p99       : " << queue_p99 << "\n"
      << "queue max       : " << queue_max << "\n"
      << "halted          : " << (halted ? "yes" : "no") << "\n";
}

OpenRunReport OpenSystemEngine::run(Schedule& schedule,
                                    const OpenSystemOptions& options,
                                    std::uint64_t seed) const {
  const Instance& instance = schedule.instance();
  const std::size_t m = instance.num_machines();
  const std::size_t n = instance.num_jobs();

  if (options.arrivals == nullptr || options.arrivals->trivial()) {
    reject("arrivals",
           "needs a non-trivial arrival plan (closed runs use "
           "ExchangeEngine or ParallelExchangeEngine directly)");
  }
  const ArrivalPlan& plan = *options.arrivals;
  plan.validate();
  const std::size_t total =
      options.num_arrivals == 0 ? n : options.num_arrivals;
  if (total > n) {
    reject("num_arrivals",
           "wants " + std::to_string(total) + " arrivals but the instance "
           "pool only has " + std::to_string(n) + " jobs");
  }
  if (!std::isfinite(options.repair_every) || options.repair_every < 0.0) {
    reject("repair_every", "must be >= 0 and finite");
  }
  const bool repair_enabled = options.repair_every > 0.0 &&
                              options.repair_budget > 0 && m >= 2;
  // The latest service end the loop can reach. The repair clock counts
  // bursts in a double, so past 2^53 of them repair_every * (bursts + 1)
  // can stop advancing; a horizon further out (or an infinite one) would
  // leave the repair bursts firing forever.
  const double horizon_limit =
      repair_enabled
          ? std::min(options.repair_every * 0x1p53,
                     std::numeric_limits<double>::max())
          : std::numeric_limits<double>::max();

  static const RandomPlacement kDefaultPlacement;
  const PlacementPolicy& placement = options.placement != nullptr
                                         ? *options.placement
                                         : kDefaultPlacement;

  // Pure substreams (see SeedDomain).
  const std::uint64_t service_seed = sub_seed(seed, kServiceDomain);
  const std::uint64_t burst_seed = sub_seed(seed, kBurstDomain);
  const std::vector<double> arrivals = plan.arrival_times(total);
  // Arrival order: the k-th admitted job is order[k].
  std::vector<JobId> order(n);
  std::iota(order.begin(), order.end(), 0);
  stats::Rng shuffle_rng(sub_seed(seed, kShuffleDomain));
  stats::shuffle(order.begin(), order.end(), shuffle_rng);

  // Mutable run state.
  stats::Rng place_rng(sub_seed(seed, kPlaceDomain));
  stats::Rng repair_rng(sub_seed(seed, kRepairDomain));
  OpenRunState state;
  std::vector<double> arrival_time(n, -1.0);

  if (options.resume != nullptr) {
    const OpenCheckpoint& ck = *options.resume;
    if (ck.seed != seed) {
      reject_resume("checkpoint was taken under seed " +
                        std::to_string(ck.seed) + ", run() got " +
                        std::to_string(seed));
    }
    if (ck.num_machines != m || ck.num_jobs != n ||
        ck.total_arrivals != total) {
      reject_resume("checkpoint does not match this run's instance shape "
                    "or arrival count");
    }
    if (ck.submitted > total) {
      reject_resume("checkpoint submitted " + std::to_string(ck.submitted) +
                        " exceeds total_arrivals " + std::to_string(total));
    }
    if (ck.completed > ck.submitted) {
      reject_resume("checkpoint completed " + std::to_string(ck.completed) +
                        " exceeds submitted " +
                        std::to_string(ck.submitted));
    }
    if (ck.in_service.size() != m || ck.busy_until.size() != m ||
        ck.completion_time.size() != n || ck.queue_seen.size() != n) {
      reject_resume("checkpoint in_service/busy_until need " +
                        std::to_string(m) +
                        " entries and completion_time/queue_seen " +
                        std::to_string(n));
    }
    if (!std::isfinite(ck.now)) {
      reject_resume("checkpoint now is not finite");
    }
    std::size_t serving = 0;
    for (MachineId i = 0; i < m; ++i) {
      if (ck.in_service[i] == kNoJob) continue;
      ++serving;
      if (ck.in_service[i] >= n) {
        reject_resume("checkpoint in_service[" + std::to_string(i) +
                          "] names no job of the instance");
      }
      // Negated so a NaN horizon is refused too: the completion queue
      // needs a strict weak order, no job finishes in the past, and one
      // past horizon_limit would never complete.
      if (!(ck.busy_until[i] >= ck.now && ck.busy_until[i] <= horizon_limit)) {
        reject_resume("checkpoint busy_until[" + std::to_string(i) +
                          "] is before now, not finite or past the reach "
                          "of the repair clock");
      }
    }
    // Admitted jobs are completed, in service or waiting; more of the
    // first two would wrap the waiting count.
    if (serving > ck.submitted - ck.completed) {
      reject_resume("checkpoint completed " + std::to_string(ck.completed) +
                        " plus " + std::to_string(serving) +
                        " in service exceeds submitted " +
                        std::to_string(ck.submitted));
    }
    // The counts pass, so check each job: an arrived one is in exactly one
    // of waiting, in service and completed, and any other in none. A job
    // in two would complete twice and wrap the waiting count.
    std::vector<std::uint8_t> arrived(n, 0);
    for (std::size_t k = 0; k < ck.submitted; ++k) arrived[order[k]] = 1;
    std::vector<std::size_t> places(n, 0);
    for (const JobId j : ck.in_service) {
      if (j != kNoJob) ++places[j];
    }
    std::size_t finished = 0;
    for (JobId j = 0; j < n; ++j) {
      const bool done = ck.completion_time[j] >= 0.0;
      finished += done ? 1 : 0;
      places[j] += (schedule.machine_of(j) != kUnassigned ? 1 : 0) +
                   (done ? 1 : 0);
      if (places[j] != arrived[j]) {
        reject_resume("checkpoint job " + std::to_string(j) +
                          (arrived[j] != 0 ? " has" : " has not") +
                          " arrived but is in " +
                          std::to_string(places[j]) +
                          " of waiting, in service and completed");
      }
    }
    if (finished != ck.completed) {
      reject_resume("checkpoint completed " + std::to_string(ck.completed) +
                        " but " + std::to_string(finished) +
                        " jobs have a completion time");
    }
    state = ck;
    place_rng = stats::Rng::from_state(ck.place_rng);
    repair_rng = stats::Rng::from_state(ck.repair_rng);
    // Arrival times of already-admitted jobs are pure data; replay them.
    for (std::size_t k = 0; k < state.submitted; ++k) {
      arrival_time[order[k]] = arrivals[k];
    }
  } else {
    for (JobId j = 0; j < n; ++j) {
      if (schedule.machine_of(j) != kUnassigned) {
        reject("arrivals", "an open-system run starts on an empty schedule "
                           "(job " + std::to_string(j) +
                           " is already assigned)");
      }
    }
    state.in_service.assign(m, kNoJob);
    state.busy_until.assign(m, 0.0);
    state.completion_time.assign(n, -1.0);
    state.queue_seen.assign(n, 0);
  }

  OpenRunReport report;
  report.initial_makespan = 0.0;
  if (options.record_trace) {
    report.trace.reserve(64);
  }

  obs::Metrics* metrics = obs::metrics_of(options.obs);
  obs::Tracer* tracer = obs::tracer_of(options.obs);
  obs::FlightRecorder* flight = obs::flight_of(options.obs);

  const PlacementView view(schedule, state);

  // Completion queue: one (busy_until, machine) entry per in-service
  // machine, earliest on top. Only start_next fills a slot and only a
  // completion empties one, and repair moves waiting jobs alone, so no
  // entry goes stale. Equal horizons pop in ascending machine id.
  using Completion = std::pair<double, MachineId>;
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>>
      completions;
  for (MachineId i = 0; i < m; ++i) {
    if (state.in_service[i] != kNoJob) {
      completions.emplace(state.busy_until[i], i);
    }
  }

  // One bit per idle machine, kept with in_service. Service is
  // work-conserving, so an idle machine's row is empty between events and
  // only a repair burst can hand it waiting jobs; the sweep after a burst
  // visits these bits alone, in ascending machine id.
  std::vector<std::uint64_t> idle((m + 63) / 64, 0);
  const auto mark_idle = [&](MachineId i) {
    idle[i / 64] |= std::uint64_t{1} << (i % 64);
  };
  for (MachineId i = 0; i < m; ++i) {
    if (state.in_service[i] == kNoJob) mark_idle(i);
  }

  const auto service_time = [&](MachineId i, JobId j) -> double {
    double c = instance.cost(i, j);
    if (options.realize_service && instance.has_cost_model()) {
      const double u = stats::Rng::stream(service_seed, j).uniform();
      c *= cost::sample_factor(instance.cost_model().dist(j), u);
    }
    return c;
  };

  // FIFO service: the waiting job that arrived first (job id breaks ties)
  // enters service. Repair bursts may have migrated it here from another
  // queue; its arrival stamp travels with it.
  const auto start_next = [&](MachineId i) {
    const auto jobs = schedule.jobs_on(i);
    JobId next = kNoJob;
    for (const JobId j : jobs) {
      if (next == kNoJob || arrival_time[j] < arrival_time[next] ||
          (arrival_time[j] == arrival_time[next] && j < next)) {
        next = j;
      }
    }
    if (next == kNoJob) return;
    // A mapped instance's costs and a cost model's parameters are not
    // checked on load; a NaN horizon would break the completion queue's
    // strict weak order, a negative service time would run the clock back,
    // and a horizon past horizon_limit (an infinite service time, or
    // now + service overflowing) would never complete. Negated, so NaN
    // fails too.
    const double service = service_time(i, next);
    const double horizon = state.now + service;
    if (!(horizon <= horizon_limit) || service < 0.0) {
      std::ostringstream why;
      why << "OpenSystemEngine: job " << next << " on machine " << i
          << " has service time " << service << " from time " << state.now
          << " (must be finite and >= 0, and its end must be finite and "
             "within 2^53 repair bursts)";
      throw ServiceTimeRefused(why.str());
    }
    schedule.unassign(next);
    state.in_service[i] = next;
    idle[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    state.busy_until[i] = horizon;
    completions.emplace(state.busy_until[i], i);
  };

  // Placement and assign read an arrival's cost in the groups of the
  // machines they probe. With at most two groups the lookahead requests
  // every group's cost, at most two lines; with more, which rows will be
  // read is not known ahead, so it requests none.
  const std::size_t cost_groups =
      instance.num_groups() <= 2 ? instance.num_groups() : 0;

  // Sequential repair keeps one runner for every burst of the run; each
  // burst makes the draws and kernel calls of an ExchangeEngine run with
  // max_exchanges = repair_budget.
  SequentialRepair sequential_repair(*kernel_, *selector_, m);

  const auto run_burst = [&]() {
    const std::uint64_t migrations_pre = schedule.migrations();
    if (options.parallel_repair) {
      ParallelEngineOptions inner;
      inner.max_exchanges = options.repair_budget;
      inner.pool = options.pool;
      // One derived seed per burst: pure in the burst index, so a resumed
      // run replays the exact burst the uninterrupted run executed.
      const std::uint64_t this_burst =
          stats::Rng::stream(burst_seed, state.bursts - 1)();
      const ParallelRunResult result =
          ParallelExchangeEngine(*kernel_, *selector_)
              .run(schedule, inner, this_burst);
      state.repair_exchanges += result.exchanges;
      state.repair_changed += result.changed_exchanges;
    } else {
      const SequentialRepair::Tally tally =
          sequential_repair.run(schedule, options.repair_budget, repair_rng);
      state.repair_exchanges += tally.exchanges;
      state.repair_changed += tally.changed;
    }
    state.repair_migrations += schedule.migrations() - migrations_pre;
    // Repair may have parked waiting jobs on idle machines; service is
    // work-conserving, so they start immediately (ascending machine id).
    // start_next clears the bit it starts; `bits` is a copy.
    for (std::size_t word = 0; word < idle.size(); ++word) {
      for (std::uint64_t bits = idle[word]; bits != 0; bits &= bits - 1) {
        const auto i =
            static_cast<MachineId>(word * 64 + std::countr_zero(bits));
        if (!schedule.jobs_on(i).empty()) start_next(i);
      }
    }
    if (options.record_trace) {
      report.trace.push_back({.makespan = schedule.makespan()});
    }
    if (tracer != nullptr) {
      tracer->instant(
          state.now, 0, "REPAIR", "open",
          {{"burst", static_cast<std::int64_t>(state.bursts)},
           {"waiting",
            static_cast<std::int64_t>(state.submitted - state.completed)}});
    }
    if (flight != nullptr) {
      obs::FlightSample sample;
      sample.round = state.bursts;
      obs::sample_loads(
          sample, schedule,
          std::views::iota(MachineId{0}, static_cast<MachineId>(m)));
      sample.exchanges = state.repair_exchanges;
      sample.migrations = state.repair_migrations;
      flight->record(sample);
    }
  };

  const auto fill_checkpoint = [&](OpenCheckpoint& ck) {
    static_cast<OpenRunState&>(ck) = state;
    ck.freeze(schedule);
    ck.seed = seed;
    ck.total_arrivals = total;
    ck.place_rng = place_rng.state();
    ck.repair_rng = repair_rng.state();
    if (metrics != nullptr) metrics->counter("checkpoint.saves").add();
    if (tracer != nullptr) {
      tracer->instant(state.now, 0, "CHECKPOINT", "checkpoint",
                      {{"events", static_cast<std::int64_t>(state.events)}});
    }
  };

  // ----- event loop: completion < arrival < repair on time ties -----
  bool halted = false;
  for (;;) {
    const bool have_comp = !completions.empty();
    const double t_comp = have_comp ? completions.top().first : 0.0;
    const bool have_arr = state.submitted < total;
    if (!have_comp && !have_arr) break;  // Drained: nothing can happen.
    const double t_arr = have_arr ? arrivals[state.submitted] : 0.0;
    const bool have_rep = repair_enabled;
    const double t_rep =
        have_rep ? options.repair_every * static_cast<double>(state.bursts + 1)
                 : 0.0;

    enum class Kind { kCompletion, kArrival, kRepair };
    Kind kind = Kind::kCompletion;
    double t = t_comp;
    if (!have_comp || (have_arr && t_arr < t)) {
      kind = Kind::kArrival;
      t = t_arr;
    }
    if (have_rep && t_rep < t) {
      kind = Kind::kRepair;
      t = t_rep;
    }

    state.now = t;
    ++state.events;
    switch (kind) {
      case Kind::kCompletion: {
        const MachineId comp_machine = completions.top().second;
        completions.pop();
        const JobId j = state.in_service[comp_machine];
        state.completion_time[j] = state.now;
        state.in_service[comp_machine] = kNoJob;
        mark_idle(comp_machine);
        ++state.completed;
        start_next(comp_machine);
        break;
      }
      case Kind::kArrival: {
        // An arrival's state sits at a shuffled job id and misses the
        // cache, so request it a fixed distance ahead. A prefetch reads
        // and writes no program state, so outputs cannot depend on it.
        // Written inline: GCC deletes a call to a function whose body
        // is only prefetches, as a call without effects.
        if (state.submitted + kArrivalLookahead < total) {
          const JobId ahead = order[state.submitted + kArrivalLookahead];
          __builtin_prefetch(arrival_time.data() + ahead, 1);
          __builtin_prefetch(state.completion_time.data() + ahead, 1);
          __builtin_prefetch(state.queue_seen.data() + ahead, 1);
          schedule.prefetch(ahead);
          for (GroupId g = 0; g < cost_groups; ++g) {
            __builtin_prefetch(instance.group_row(g).data() + ahead);
          }
        }
        const JobId j = order[state.submitted];
        arrival_time[j] = state.now;
        const MachineId target = placement.place(view, j, place_rng);
        state.queue_seen[j] = schedule.jobs_on(target).size() +
                              (state.in_service[target] != kNoJob ? 1 : 0);
        schedule.assign(j, target);
        ++state.submitted;
        if (state.in_service[target] == kNoJob) start_next(target);
        break;
      }
      case Kind::kRepair: {
        ++state.bursts;
        run_burst();
        break;
      }
    }

    const bool halt_here = options.halt_after_events.has_value() &&
                           *options.halt_after_events == state.events;
    if (options.checkpoint_out != nullptr &&
        (halt_here || (options.checkpoint_every_events != 0 &&
                       state.events % options.checkpoint_every_events == 0))) {
      fill_checkpoint(*options.checkpoint_out);
    }
    if (halt_here) {
      halted = true;
      break;
    }
  }

  // ----- report + observability (cumulative over the logical run) -----
  report.final_makespan = schedule.makespan();
  report.best_makespan = 0.0;
  report.exchanges = state.repair_exchanges;
  report.migrations = state.repair_migrations;
  report.converged = !halted;
  report.halted = halted;
  report.jobs_submitted = state.submitted;
  report.jobs_completed = state.completed;
  std::uint64_t serving = 0;
  for (MachineId i = 0; i < m; ++i) {
    if (state.in_service[i] != kNoJob) ++serving;
  }
  report.jobs_in_service = serving;
  report.jobs_waiting = state.submitted - state.completed - serving;
  report.repair_bursts = state.bursts;
  report.events = state.events;
  report.end_time = state.now;

  // Percentiles come from log2 bucket counts under obs::Histogram's bucket
  // rule, kept in plain local arrays, and the mean from an exact sum
  // accumulated in job-id order — both invariant across any halt/resume
  // split because they are computed from the full per-job arrays at the
  // end of the run, never incrementally.
  std::array<std::uint64_t, obs::Histogram::kNumBuckets> response_counts{};
  std::array<std::uint64_t, obs::Histogram::kNumBuckets> queue_counts{};
  obs::Histogram* m_response =
      metrics != nullptr ? &metrics->histogram("open.response_time") : nullptr;
  obs::Histogram* m_queue =
      metrics != nullptr ? &metrics->histogram("open.queue_len") : nullptr;
  double response_sum = 0.0;
  double queue_sum = 0.0;
  std::uint64_t response_count = 0;
  std::uint64_t queue_max = 0;
  for (JobId j = 0; j < n; ++j) {
    if (state.completion_time[j] >= 0.0) {
      const double response = state.completion_time[j] - arrival_time[j];
      ++response_counts[obs::Histogram::bucket_index(response)];
      if (m_response != nullptr) m_response->observe(response);
      response_sum += response;
      ++response_count;
    }
    if (arrival_time[j] >= 0.0) {
      const auto queue = static_cast<double>(state.queue_seen[j]);
      ++queue_counts[obs::Histogram::bucket_index(queue)];
      if (m_queue != nullptr) m_queue->observe(queue);
      queue_sum += queue;
      queue_max = std::max(queue_max, state.queue_seen[j]);
    }
  }
  if (response_count > 0) {
    report.response_mean = response_sum / static_cast<double>(response_count);
  }
  const auto response_snapshot =
      obs::Histogram::snapshot_of(response_counts, response_sum);
  report.response_p50 = response_snapshot.quantile_bound(0.50);
  report.response_p95 = response_snapshot.quantile_bound(0.95);
  report.response_p99 = response_snapshot.quantile_bound(0.99);
  const auto queue_snapshot =
      obs::Histogram::snapshot_of(queue_counts, queue_sum);
  report.queue_p50 = queue_snapshot.quantile_bound(0.50);
  report.queue_p95 = queue_snapshot.quantile_bound(0.95);
  report.queue_p99 = queue_snapshot.quantile_bound(0.99);
  report.queue_max = queue_max;

  if (metrics != nullptr) {
    // Cumulative totals added once at the end: a resumed run lands the
    // same totals in a fresh registry as the uninterrupted run did.
    metrics->counter("open.arrivals").add(state.submitted);
    metrics->counter("open.completions").add(state.completed);
    metrics->counter("open.repair_bursts").add(state.bursts);
    metrics->counter("open.repair_exchanges").add(state.repair_exchanges);
    metrics->counter("open.repair_migrations").add(state.repair_migrations);
    metrics->counter("open.events").add(state.events);
  }
  fill_risk_report(report, schedule);
  return report;
}

}  // namespace dlb::dist
