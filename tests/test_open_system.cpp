// The open-system service workload, locked down end to end: ArrivalPlan
// validation and byte-exact persistence, placement-policy parity with the
// centralized baselines, the rejection of runs without arrivals, repair
// thread-invariance at 1/4/8 workers, halt/checkpoint/resume equivalence
// (report JSON + metrics snapshot + trace suffix), the end of the arrival
// lookahead, golden digests of the repair bursts, Section IV's claim that
// repair lowers the response time, the completion order on equal horizons,
// and the heap-vs-mapped InstanceStore leg. See docs/open-system.md for the
// determinism contract.

#include "dist/open_system/open_engine.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "centralized/two_choices.hpp"
#include "check/case_gen.hpp"
#include "core/cost_model.hpp"
#include "core/generators.hpp"
#include "core/instance_store.hpp"
#include "golden_digest.hpp"
#include "obs/obs.hpp"
#include "pairwise/kernel_registry.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace dlb::dist {
namespace {

constexpr std::uint64_t kSeed = 20260808;

// ----- ArrivalPlan -----

TEST(ArrivalPlan, ValidationNamesTheOffendingField) {
  try {
    (void)ArrivalPlan::poisson(0.0, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "ArrivalPlan: invalid rate: must be > 0 and finite, got 0");
  }
  try {
    (void)ArrivalPlan::bursty(1.0, -0.5, 1.0, 1.0, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(
        e.what(),
        "ArrivalPlan: invalid off_rate: must be >= 0 and finite, got -0.5");
  }
  try {
    (void)ArrivalPlan::diurnal({0.0, 0.0}, 1.0, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "ArrivalPlan: invalid trace: every bin has rate 0, so no "
                 "job would ever arrive");
  }
  try {
    (void)ArrivalPlan::diurnal({1.0}, 0.0, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(
        e.what(),
        "ArrivalPlan: invalid bin_duration: must be > 0 and finite, got 0");
  }
}

TEST(ArrivalPlan, UnknownKindNameListsTheOptions) {
  try {
    (void)arrival_kind_by_name("weekly");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown arrival kind: weekly (expected none, poisson, "
                 "bursty, or diurnal)");
  }
}

TEST(ArrivalPlan, PersistenceRoundTripIsByteExact) {
  const ArrivalPlan plan =
      ArrivalPlan::bursty(0.7, 0.01, 33.25, 12.125, 0xFEEDULL);
  std::stringstream first;
  plan.save(first);
  const ArrivalPlan loaded = ArrivalPlan::load(first);
  EXPECT_EQ(plan, loaded);
  std::stringstream second;
  loaded.save(second);
  EXPECT_EQ(first.str(), second.str());

  const ArrivalPlan diurnal =
      ArrivalPlan::diurnal({0.0, 0.3, 1.75, 0.0}, 41.5, 99);
  std::stringstream bytes;
  diurnal.save(bytes);
  EXPECT_EQ(diurnal, ArrivalPlan::load(bytes));
}

TEST(ArrivalPlan, LoadRejectsHostileTraceCountWithoutAllocating) {
  // The trace has no header bound, so it grows as it is read: a huge
  // claimed count fails as truncated instead of allocating it.
  const ArrivalPlan plan = ArrivalPlan::diurnal({0.5, 1.5}, 10.0, 3);
  std::stringstream saved;
  plan.save(saved);
  std::string text = saved.str();
  const std::size_t at = text.find("trace 2");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 7, "trace 999999999999");
  std::stringstream bytes(text);
  EXPECT_THROW((void)ArrivalPlan::load(bytes), std::runtime_error);
}

TEST(ArrivalPlan, ArrivalTimesArePureAndNonDecreasing) {
  for (const ArrivalPlan& plan :
       {ArrivalPlan::poisson(0.05, 7),
        ArrivalPlan::bursty(0.2, 0.0, 50.0, 25.0, 7),
        ArrivalPlan::diurnal({0.1, 0.0, 0.4}, 30.0, 7)}) {
    const std::vector<double> times = plan.arrival_times(64);
    EXPECT_EQ(times, plan.arrival_times(64));
    // Pure per index: a shorter request is a prefix of a longer one.
    const std::vector<double> prefix = plan.arrival_times(16);
    for (std::size_t k = 0; k < prefix.size(); ++k) {
      EXPECT_EQ(prefix[k], times[k]) << "arrival " << k;
    }
    for (std::size_t k = 1; k < times.size(); ++k) {
      EXPECT_LE(times[k - 1], times[k]) << "arrival " << k;
    }
  }
}

TEST(ArrivalPlan, TrivialPlanRefusesToEmitTimes) {
  EXPECT_THROW((void)ArrivalPlan{}.arrival_times(1), std::invalid_argument);
}

TEST(ArrivalPlan, SubnormalRateIsRefusedInsteadOfAnInfiniteTime) {
  // 1e-310 is positive and finite, so validate() accepts it, but a unit
  // gap divided by it overflows to +inf.
  const ArrivalPlan plan = ArrivalPlan::poisson(1e-310, 1);
  try {
    const std::vector<double> times = plan.arrival_times(1);
    ADD_FAILURE() << "arrival_times returned " << times.front();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ArrivalPlan: invalid rate"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << e.what();
  }
}

TEST(ArrivalPlan, CycleTooSmallToUseUpAGapIsRefused) {
  const auto expect_refused = [](const ArrivalPlan& plan,
                                 const std::string& field) {
    try {
      plan.validate();
      ADD_FAILURE() << "validate() accepted a plan for " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("ArrivalPlan: invalid " + field +
                                           ": one cycle must expect"),
                std::string::npos)
          << e.what();
    }
    // arrival_times validates too, so it throws instead of spinning.
    EXPECT_THROW((void)plan.arrival_times(1), std::invalid_argument) << field;
  };
  // Each cycle's capacity is below the ulp of a unit gap: `gap -= avail`
  // never moved, and the bin walk never ended.
  ArrivalPlan bursty;
  bursty.kind = ArrivalKind::kBursty;
  bursty.rate = 1e-300;
  bursty.off_rate = 0.0;
  bursty.on_duration = 1e-10;
  bursty.off_duration = 1.0;
  expect_refused(bursty, "rate");
  ArrivalPlan diurnal;
  diurnal.kind = ArrivalKind::kDiurnal;
  diurnal.trace = {1e-310, 0.0};
  diurnal.bin_duration = 1.0;
  expect_refused(diurnal, "trace");
  // Progress of 1e-10 per cycle: about 1e10 cycles per arrival.
  bursty.rate = 1e-10;
  bursty.on_duration = 1.0;
  expect_refused(bursty, "rate");
  EXPECT_THROW((void)ArrivalPlan::bursty(1e-300, 0.0, 1e-10, 1.0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)ArrivalPlan::diurnal({1e-310}, 1.0, 1),
               std::invalid_argument);

  // The smallest capacity accepted still finishes: 2^-20 per cycle.
  const ArrivalPlan slowest = ArrivalPlan::bursty(0x1p-21, 0.0, 2.0, 1.0, 1);
  const std::vector<double> times = slowest.arrival_times(2);
  EXPECT_TRUE(std::isfinite(times.back()));
  EXPECT_LE(times.front(), times.back());
}

// ----- placement policies -----

TEST(Placement, TwoChoicesMatchesTheCentralizedScheduleDrawForDraw) {
  const Instance instance = gen::uniform_unrelated(5, 24, 1.0, 100.0, 3);
  stats::Rng reference_rng(11);
  const Schedule expected =
      centralized::two_choices_schedule(instance, 2, reference_rng);

  const TwoChoicesPlacement policy(2);
  Schedule actual(instance);
  OpenRunState idle;
  idle.in_service.assign(instance.num_machines(), kNoJob);
  const PlacementView view(actual, idle);
  stats::Rng rng(11);
  const auto jobs = static_cast<JobId>(instance.num_jobs());
  for (JobId j = 0; j < jobs; ++j) {
    actual.assign(j, policy.place(view, j, rng));
  }
  EXPECT_EQ(expected.fingerprint(), actual.fingerprint());
}

TEST(Placement, MakePlacementParsesSpecsAndRejectsBadOnes) {
  EXPECT_EQ(make_placement("two_choices:3")->name(), "two_choices:3");
  EXPECT_EQ(make_placement("2choices:4")->name(), "two_choices:4");
  EXPECT_EQ(make_placement("random")->name(), "random");
  EXPECT_EQ(make_placement("ect")->name(), "ect");
  EXPECT_EQ(make_placement("2choices")->name(), "two_choices:2");
  try {
    (void)make_placement("two_choices:zero");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "make_placement: invalid probe count 'zero' in "
                 "'two_choices:zero' (want an integer >= 1)");
  }
  EXPECT_THROW((void)make_placement("best_fit"), std::invalid_argument);
  EXPECT_THROW(TwoChoicesPlacement(0), std::invalid_argument);
}

// ----- run outcomes as comparable bytes -----

struct Outcome {
  std::string report_json;
  std::uint64_t fingerprint = 0;
  std::string metrics_json;
  std::vector<obs::TraceEvent> trace;
  std::vector<TracePoint> run_trace;
};

bool same_event(const obs::TraceEvent& a, const obs::TraceEvent& b) {
  return a.ts_us == b.ts_us && a.tid == b.tid && a.phase == b.phase &&
         a.name == b.name && a.category == b.category && a.args == b.args;
}

void expect_identical(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.report_json, b.report_json);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.run_trace, b.run_trace);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t k = 0; k < a.trace.size(); ++k) {
    EXPECT_TRUE(same_event(a.trace[k], b.trace[k]))
        << "trace event " << k << " differs";
  }
}

OpenSystemOptions open_options(const ArrivalPlan& plan) {
  OpenSystemOptions options;
  options.arrivals = &plan;
  options.repair_every = 20.0;
  options.repair_budget = 6;
  options.record_trace = true;
  return options;
}

Outcome run_open(const Instance& instance, OpenSystemOptions options,
                 std::uint64_t seed, const char* kernel = "basic-greedy") {
  obs::Metrics metrics;
  obs::Tracer tracer;
  const obs::Context context{&metrics, &tracer};
  options.obs = &context;
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(pairwise::kernel_registry().get(kernel),
                                selector);
  Schedule schedule(instance);
  const OpenRunReport report = engine.run(schedule, options, seed);
  return {report.to_json().dump(), schedule.fingerprint(),
          metrics.snapshot().dump(), tracer.events(),
          report.trace};
}

// ----- preconditions -----

TEST(OpenSystemEngine, NullOrTrivialArrivalPlanIsRejected) {
  const Instance instance = gen::identical_uniform(2, 8, 1.0, 10.0, 1);
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  const ArrivalPlan trivial_plan;  // kind == kNone
  for (const ArrivalPlan* plan : {static_cast<const ArrivalPlan*>(nullptr),
                                  &trivial_plan}) {
    OpenSystemOptions options;
    options.arrivals = plan;
    Schedule schedule(instance);
    try {
      (void)engine.run(schedule, options, kSeed);
      ADD_FAILURE() << "a run without arrivals was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("OpenSystemOptions.arrivals"),
                std::string::npos)
          << e.what();
    }
  }
}

// ----- open mode: conservation, preconditions, report shape -----

TEST(OpenSystemEngine, DrainsEveryArrivalAndReportsPercentiles) {
  const Instance instance = gen::two_cluster_uniform(3, 2, 30, 1.0, 100.0, 8);
  const ArrivalPlan plan = ArrivalPlan::poisson(0.04, 13);
  const Outcome outcome = run_open(instance, open_options(plan), kSeed);

  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  Schedule schedule(instance);
  const OpenRunReport report =
      engine.run(schedule, open_options(plan), kSeed);
  EXPECT_EQ(report.jobs_submitted, 30u);
  EXPECT_EQ(report.jobs_completed, 30u);
  EXPECT_EQ(report.jobs_in_service, 0u);
  EXPECT_EQ(report.jobs_waiting, 0u);
  EXPECT_TRUE(report.converged);
  EXPECT_FALSE(report.halted);
  EXPECT_GT(report.end_time, 0.0);
  EXPECT_GT(report.response_mean, 0.0);
  EXPECT_LE(report.response_p50, report.response_p95);
  EXPECT_LE(report.response_p95, report.response_p99);
  EXPECT_GE(report.events, 60u);  // 30 arrivals + 30 completions.
  // Same seed, same bytes.
  EXPECT_EQ(report.to_json().dump(), outcome.report_json);
  // The open keys ride behind the full base schema.
  EXPECT_NE(outcome.report_json.find("\"open_jobs_submitted\""),
            std::string::npos);
  EXPECT_NE(outcome.report_json.find("\"risk_jobs\""), std::string::npos);
}

// The report counts its percentiles in run-local buckets under
// obs::Histogram's bucket rule, so an attached sink's histograms must give
// the same bounds.
TEST(OpenSystemEngine, ReportPercentilesEqualTheSinkHistogramBounds) {
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(pairwise::kernel_registry().get("dlb2c"),
                                selector);
  const auto sink_snapshots = [&](const Instance& instance,
                                  OpenSystemOptions options) {
    obs::Metrics metrics;
    obs::Tracer tracer;
    const obs::Context context{&metrics, &tracer};
    options.obs = &context;
    Schedule schedule(instance);
    const OpenRunReport report = engine.run(schedule, options, kSeed);
    const auto response = metrics.histogram("open.response_time").snapshot();
    const auto queue = metrics.histogram("open.queue_len").snapshot();
    EXPECT_EQ(response.count, report.jobs_completed);
    EXPECT_EQ(queue.count, report.jobs_submitted);
    EXPECT_EQ(report.response_p50, response.quantile_bound(0.50));
    EXPECT_EQ(report.response_p95, response.quantile_bound(0.95));
    EXPECT_EQ(report.response_p99, response.quantile_bound(0.99));
    EXPECT_EQ(report.queue_p50, queue.quantile_bound(0.50));
    EXPECT_EQ(report.queue_p95, queue.quantile_bound(0.95));
    EXPECT_EQ(report.queue_p99, queue.quantile_bound(0.99));
    return response;
  };

  const ArrivalPlan poisson = ArrivalPlan::poisson(0.3, 13);
  const auto busy = sink_snapshots(
      gen::two_cluster_uniform(3, 2, 200, 1.0, 20.0, 8), open_options(poisson));
  EXPECT_GT(busy.buckets.size(), 3u);

  // Every job arrives at t = 2^60, where a cost of 1 rounds away: those
  // jobs complete at their arrival time, a response of 0 in bucket 0.
  std::vector<Cost> costs;
  for (std::size_t j = 0; j < 24; ++j) costs.push_back(j % 4 == 0 ? 4e3 : 1.0);
  const ArrivalPlan late = ArrivalPlan::diurnal({0.0, 1e20}, 0x1p60, 3);
  OpenSystemOptions options;
  options.arrivals = &late;
  const auto zero = sink_snapshots(Instance::identical(4, costs), options);
  ASSERT_FALSE(zero.buckets.empty());
  EXPECT_EQ(zero.buckets.front().first,
            std::ldexp(1.0, obs::Histogram::kMinExp));
  EXPECT_GT(zero.buckets.size(), 1u);
}

TEST(OpenSystemEngine, NumArrivalsCapsTheAdmittedJobs) {
  const Instance instance = gen::identical_uniform(3, 20, 1.0, 50.0, 4);
  const ArrivalPlan plan = ArrivalPlan::poisson(0.1, 5);
  OpenSystemOptions options = open_options(plan);
  options.num_arrivals = 5;
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  Schedule schedule(instance);
  const OpenRunReport report = engine.run(schedule, options, kSeed);
  EXPECT_EQ(report.jobs_submitted, 5u);
  EXPECT_EQ(report.jobs_completed, 5u);

  options.num_arrivals = 21;
  Schedule rejected(instance);
  EXPECT_THROW(engine.run(rejected, options, kSeed), std::invalid_argument);
}

TEST(OpenSystemEngine, OpenModeRequiresAnEmptySchedule) {
  const Instance instance = gen::identical_uniform(2, 6, 1.0, 10.0, 9);
  const ArrivalPlan plan = ArrivalPlan::poisson(0.1, 2);
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  Schedule loaded(instance, gen::random_assignment(instance, 3));
  try {
    engine.run(loaded, open_options(plan), kSeed);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("starts on an empty schedule"),
              std::string::npos);
  }
}

// ----- differential: repair thread invariance at 1/4/8 workers -----

TEST(OpenSystemEngine, ParallelRepairIsThreadCountInvariantAcrossRegimes) {
  for (const check::Regime regime :
       {check::Regime::kOpenPoisson, check::Regime::kOpenBursty}) {
    for (const std::uint64_t index : {0ULL, 1ULL, 2ULL}) {
      const check::GeneratedCase test_case =
          check::make_case(kSeed, index, regime);
      ASSERT_FALSE(test_case.arrivals.trivial());
      OpenSystemOptions options = open_options(test_case.arrivals);
      options.parallel_repair = true;
      options.realize_service = test_case.instance.has_cost_model();

      const Outcome inline_run = run_open(test_case.instance, options, kSeed);
      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
        parallel::ThreadPool pool(threads);
        OpenSystemOptions pooled = options;
        pooled.pool = &pool;
        const Outcome pooled_run =
            run_open(test_case.instance, pooled, kSeed);
        expect_identical(inline_run, pooled_run);
      }
    }
  }
}

// ----- differential: halt / checkpoint / resume -----

TEST(OpenSystemEngine, HaltResumeReproducesTheUninterruptedRunByteForByte) {
  const check::GeneratedCase test_case =
      check::make_case(kSeed, 4, check::Regime::kOpenPoisson);
  const Instance& instance = test_case.instance;
  OpenSystemOptions options = open_options(test_case.arrivals);
  options.placement = nullptr;

  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  const Outcome uninterrupted = run_open(instance, options, kSeed);

  Schedule probe(instance);
  const OpenRunReport full = engine.run(probe, options, kSeed);
  ASSERT_GT(full.events, 3u);

  std::uint64_t busiest_halt = 0;
  for (const std::uint64_t halt_at :
       {std::uint64_t{1}, full.events / 3, full.events / 2,
        full.events - 1}) {
    OpenCheckpoint checkpoint;
    OpenSystemOptions halt_options = options;
    halt_options.halt_after_events = halt_at;
    halt_options.checkpoint_out = &checkpoint;
    Schedule halted(instance);
    const OpenRunReport partial =
        engine.run(halted, halt_options, kSeed);
    ASSERT_TRUE(partial.halted);
    ASSERT_FALSE(partial.converged);
    busiest_halt = std::max(busiest_halt, partial.jobs_in_service);

    // Through the text format: restore must be ulp-exact.
    std::stringstream bytes;
    checkpoint.save(bytes);
    const OpenCheckpoint restored = OpenCheckpoint::load(bytes);
    std::stringstream again;
    restored.save(again);
    EXPECT_EQ(bytes.str(), again.str());

    obs::Metrics metrics;
    obs::Tracer tracer;
    const obs::Context context{&metrics, &tracer};
    OpenSystemOptions resume_options = options;
    resume_options.resume = &restored;
    resume_options.obs = &context;
    Schedule resumed = restored.make_schedule(instance);
    const OpenRunReport finished =
        engine.run(resumed, resume_options, kSeed);

    EXPECT_EQ(finished.to_json().dump(), uninterrupted.report_json)
        << "halted at event " << halt_at;
    EXPECT_EQ(resumed.fingerprint(), uninterrupted.fingerprint);
    // Cumulative end-of-run totals: a fresh registry after resume lands
    // exactly the uninterrupted run's snapshot.
    EXPECT_EQ(metrics.snapshot().dump(), uninterrupted.metrics_json);
    // The resumed trace is the uninterrupted trace's suffix.
    ASSERT_LE(tracer.events().size(), uninterrupted.trace.size());
    const std::size_t offset =
        uninterrupted.trace.size() - tracer.events().size();
    for (std::size_t k = 0; k < tracer.events().size(); ++k) {
      EXPECT_TRUE(
          same_event(tracer.events()[k], uninterrupted.trace[offset + k]))
          << "suffix event " << k << " after halting at " << halt_at;
    }
  }
  // Resume rebuilds the completion queue from the checkpoint; at least
  // one split must hand it more than one in-service machine.
  EXPECT_GE(busiest_halt, 2u);
}

// ----- the end of the arrival lookahead -----

// The event loop prefetches the state of the job admitted 16 arrivals
// ahead, and only while that arrival is part of the run. A prefetch
// changes no state, so these runs, on both sides of that edge, keep the
// digests the engine gave before it looked ahead at all.
constexpr std::size_t kLookahead = 16;

std::uint64_t digest_of(const Outcome& outcome) {
  golden::Digest digest;
  digest.add(outcome.report_json);
  digest.add(outcome.fingerprint);
  digest.add(outcome.metrics_json);
  for (const TracePoint& point : outcome.run_trace) {
    digest.add(point.makespan);
  }
  for (const obs::TraceEvent& event : outcome.trace) {
    digest.add(event.ts_us);
    digest.add(event.name);
  }
  return digest.value();
}

TEST(OpenSystemEngine, ArrivalCountsAroundTheLookaheadKeepTheirDigests) {
  // Two groups, so the lookahead also prefetches cost rows; two_choices
  // placement reads them.
  const Instance instance =
      gen::two_cluster_uniform(3, 2, 40, 1.0, 100.0, 6);
  const ArrivalPlan plan = ArrivalPlan::poisson(0.05, 11);
  const auto two_choices = make_placement("two_choices:2");
  const std::pair<std::size_t, std::uint64_t> pinned[] = {
      {1, 0xF3C19FFD21DD8337ULL},
      {kLookahead - 1, 0xD981FAFD7B2695F3ULL},
      {kLookahead, 0xB052EF247C96B011ULL},
      {kLookahead + 1, 0x5E1998444A353D69ULL},
  };
  for (const auto& [arrivals, digest] : pinned) {
    OpenSystemOptions options = open_options(plan);
    options.placement = two_choices.get();
    options.num_arrivals = arrivals;
    const Outcome outcome = run_open(instance, options, kSeed);
    EXPECT_EQ(digest_of(outcome), digest)
        << arrivals << " arrivals: digest 0x" << std::hex
        << digest_of(outcome);
    EXPECT_NE(outcome.report_json.find("\"open_jobs_completed\":" +
                                       std::to_string(arrivals) + ","),
              std::string::npos)
        << outcome.report_json;
  }
}

TEST(OpenSystemEngine, InstanceSmallerThanTheLookaheadKeepsItsDigest) {
  // Fewer jobs than the lookahead distance: no arrival is ever prefetched.
  // Five groups, beyond the two-group cost prefetch.
  const Instance instance = gen::uniform_unrelated(5, 12, 1.0, 50.0, 8);
  ASSERT_LT(instance.num_jobs(), kLookahead);
  const ArrivalPlan plan = ArrivalPlan::bursty(0.2, 0.02, 30.0, 20.0, 4);
  const Outcome outcome = run_open(instance, open_options(plan), kSeed);
  EXPECT_EQ(digest_of(outcome), 0x1797786269FBDCA1ULL)
      << "digest 0x" << std::hex << digest_of(outcome);
  EXPECT_NE(outcome.report_json.find("\"open_jobs_completed\":12,"),
            std::string::npos)
      << outcome.report_json;
}

TEST(OpenSystemEngine, HaltResumeInsideTheLastLookaheadArrivals) {
  const Instance instance =
      gen::two_cluster_uniform(3, 2, 40, 1.0, 100.0, 6);
  const ArrivalPlan plan = ArrivalPlan::poisson(0.05, 11);
  const auto two_choices = make_placement("two_choices:2");
  OpenSystemOptions options = open_options(plan);
  options.placement = two_choices.get();
  const Outcome uninterrupted = run_open(instance, options, kSeed);
  const std::size_t total = instance.num_jobs();

  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  Schedule probe(instance);
  const std::uint64_t events = engine.run(probe, options, kSeed).events;

  // Halt after every event; resume those whose next arrival lies within
  // the last 16, where the lookahead has run past the end of the order.
  std::size_t resumed_inside = 0;
  for (std::uint64_t halt_at = 1; halt_at < events; ++halt_at) {
    OpenCheckpoint checkpoint;
    OpenSystemOptions halt_options = options;
    halt_options.halt_after_events = halt_at;
    halt_options.checkpoint_out = &checkpoint;
    Schedule halted(instance);
    ASSERT_TRUE(engine.run(halted, halt_options, kSeed).halted);
    if (checkpoint.submitted + kLookahead < total ||
        checkpoint.submitted >= total) {
      continue;
    }
    ++resumed_inside;
    std::stringstream bytes;
    checkpoint.save(bytes);
    const OpenCheckpoint restored = OpenCheckpoint::load(bytes);
    obs::Metrics metrics;
    obs::Tracer tracer;
    const obs::Context context{&metrics, &tracer};
    OpenSystemOptions resume_options = options;
    resume_options.resume = &restored;
    resume_options.obs = &context;
    Schedule resumed = restored.make_schedule(instance);
    const OpenRunReport finished =
        engine.run(resumed, resume_options, kSeed);
    EXPECT_EQ(finished.to_json().dump(), uninterrupted.report_json)
        << "halted at event " << halt_at;
    EXPECT_EQ(resumed.fingerprint(), uninterrupted.fingerprint)
        << "halted at event " << halt_at;
    EXPECT_EQ(metrics.snapshot().dump(), uninterrupted.metrics_json)
        << "halted at event " << halt_at;
  }
  EXPECT_GE(resumed_inside, kLookahead);
}

// ----- golden digests of the repair bursts -----

// Each case folds the uninterrupted run (digest_of) and the checkpoint
// bytes of a halt at half its events into one constant. The pins were taken
// when every burst was a whole ExchangeEngine run with max_exchanges set to
// the budget, so they hold the bursts to exactly its draws and kernel calls.
std::uint64_t golden_of(const Instance& instance,
                        const OpenSystemOptions& options, const char* kernel) {
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(pairwise::kernel_registry().get(kernel),
                                selector);
  Schedule probe(instance);
  const std::uint64_t events = engine.run(probe, options, kSeed).events;
  OpenCheckpoint checkpoint;
  OpenSystemOptions halt_options = options;
  halt_options.halt_after_events = events / 2;
  halt_options.checkpoint_out = &checkpoint;
  Schedule halted(instance);
  EXPECT_TRUE(engine.run(halted, halt_options, kSeed).halted);
  std::stringstream bytes;
  checkpoint.save(bytes);
  golden::Digest digest;
  digest.add(digest_of(run_open(instance, options, kSeed, kernel)));
  digest.add(bytes.str());
  return digest.value();
}

Instance golden_instance() {
  return gen::two_cluster_uniform(4, 3, 150, 1.0, 100.0, 5);
}

TEST(OpenSystemGolden, RiskAwareKernelPreparesItsSurrogateEveryBurst) {
  // The q95 wrapper re-attaches its surrogate in prepare(), which clears
  // the row flags and rebuilds the decision loads before each burst.
  Instance instance = golden_instance();
  instance.set_cost_model(cost::CostModel(std::vector<cost::Dist>(
      instance.num_jobs(), cost::parse_dist("lognormal:0.5"))));
  const ArrivalPlan plan = ArrivalPlan::poisson(0.1, 3);
  const auto two_choices = make_placement("two_choices:2");
  OpenSystemOptions options = open_options(plan);
  options.placement = two_choices.get();
  options.realize_service = true;
  const std::uint64_t digest = golden_of(instance, options, "dlb2c_q95");
  EXPECT_EQ(digest, 0x946251425F6D503DULL) << "digest 0x" << std::hex << digest;
}

TEST(OpenSystemGolden, BudgetAboveTheMachineCountRunsSeveralEpochs) {
  // 13 exchanges on 7 machines: each burst shuffles the round twice and
  // stops inside the second epoch.
  const Instance instance = golden_instance();
  const ArrivalPlan plan = ArrivalPlan::poisson(0.1, 4);
  OpenSystemOptions options = open_options(plan);
  options.repair_budget = 13;
  ASSERT_GT(options.repair_budget, instance.num_machines());
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(pairwise::kernel_registry().get("dlb2c"),
                                selector);
  Schedule schedule(instance);
  const OpenRunReport report = engine.run(schedule, options, kSeed);
  ASSERT_GT(report.repair_bursts, 0u);
  EXPECT_EQ(report.exchanges, report.repair_bursts * options.repair_budget);
  const std::uint64_t digest = golden_of(instance, options, "dlb2c");
  EXPECT_EQ(digest, 0x24700C88C406A870ULL) << "digest 0x" << std::hex << digest;
}

TEST(OpenSystemGolden, BudgetOfOneExchangePerBurst) {
  const Instance instance = golden_instance();
  const ArrivalPlan plan = ArrivalPlan::poisson(0.1, 5);
  OpenSystemOptions options = open_options(plan);
  options.repair_budget = 1;
  const std::uint64_t digest = golden_of(instance, options, "dlb2c");
  EXPECT_EQ(digest, 0x8E2906E274B0DC59ULL) << "digest 0x" << std::hex << digest;
}

TEST(OpenSystemGolden, HaltAndResumeAtABurstEvent) {
  const Instance instance = golden_instance();
  const ArrivalPlan plan = ArrivalPlan::poisson(0.1, 6);
  const OpenSystemOptions options = open_options(plan);
  const Outcome uninterrupted = run_open(instance, options, kSeed, "dlb2c");
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(pairwise::kernel_registry().get("dlb2c"),
                                selector);
  Schedule probe(instance);
  const std::uint64_t events = engine.run(probe, options, kSeed).events;

  // The first event from the middle on that is a burst: halting after it
  // counts one burst more than halting before it.
  const auto halt = [&](std::uint64_t at, OpenCheckpoint& checkpoint) {
    OpenSystemOptions halt_options = options;
    halt_options.halt_after_events = at;
    halt_options.checkpoint_out = &checkpoint;
    Schedule halted(instance);
    EXPECT_TRUE(engine.run(halted, halt_options, kSeed).halted);
  };
  OpenCheckpoint checkpoint;
  std::uint64_t halt_at = events / 2;
  for (OpenCheckpoint before;; ++halt_at) {
    ASSERT_LT(halt_at, events);
    halt(halt_at - 1, before);
    halt(halt_at, checkpoint);
    if (checkpoint.bursts == before.bursts + 1) break;
  }
  std::stringstream bytes;
  checkpoint.save(bytes);
  const OpenCheckpoint restored = OpenCheckpoint::load(bytes);
  obs::Metrics metrics;
  obs::Tracer tracer;
  const obs::Context context{&metrics, &tracer};
  OpenSystemOptions resume_options = options;
  resume_options.resume = &restored;
  resume_options.obs = &context;
  Schedule resumed = restored.make_schedule(instance);
  const OpenRunReport finished = engine.run(resumed, resume_options, kSeed);
  EXPECT_EQ(finished.to_json().dump(), uninterrupted.report_json);
  EXPECT_EQ(resumed.fingerprint(), uninterrupted.fingerprint);

  golden::Digest digest;
  digest.add(halt_at);
  digest.add(bytes.str());
  digest.add(finished.to_json().dump());
  digest.add(resumed.fingerprint());
  digest.add(metrics.snapshot().dump());
  for (const TracePoint& point : finished.trace) digest.add(point.makespan);
  for (const obs::TraceEvent& event : tracer.events()) {
    digest.add(event.ts_us);
    digest.add(event.name);
  }
  EXPECT_EQ(digest.value(), 0x8010F81E94F7691CULL)
      << "digest 0x" << std::hex << digest.value();
}

TEST(OpenSystemGolden, ParallelRepairAtOneAndThreeThreads) {
  const Instance instance = golden_instance();
  const ArrivalPlan plan = ArrivalPlan::poisson(0.1, 7);
  OpenSystemOptions options = open_options(plan);
  options.parallel_repair = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    parallel::ThreadPool pool(threads);
    options.pool = &pool;
    const std::uint64_t digest = golden_of(instance, options, "dlb2c");
    EXPECT_EQ(digest, 0x17A74118D487F59FULL)
        << threads << " threads: digest 0x" << std::hex << digest;
  }
}

// ----- Section IV: background repair absorbs the arrivals -----

// The ext_open_system smoke shape with random placement: a budget of 32
// exchanges every 25 time units cuts the mean response time against the
// frozen budget-0 control at every seed.
TEST(OpenSystemEngine, RepairBudgetLowersTheResponseTime) {
  const Instance instance =
      gen::two_cluster_uniform(8, 4, 384, 1.0, 100.0, 21);
  const ArrivalPlan plan = ArrivalPlan::poisson(0.15, 7);
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(pairwise::kernel_registry().get("dlb2c"),
                                selector);
  const auto response_mean = [&](std::size_t budget, std::uint64_t seed) {
    OpenSystemOptions options;
    options.arrivals = &plan;
    options.repair_every = 25.0;
    options.repair_budget = budget;
    Schedule schedule(instance);
    const OpenRunReport report = engine.run(schedule, options, seed);
    EXPECT_EQ(report.jobs_completed, instance.num_jobs());
    return report.response_mean;
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const double frozen = response_mean(0, seed);
    const double repaired = response_mean(32, seed);
    EXPECT_LT(repaired * 1.25, frozen) << "seed " << seed;
  }
}

// ----- completion ties -----

TEST(OpenSystemEngine, EqualCompletionTimesCompleteInAscendingMachineId) {
  // Identical machines, integer costs and one batch of simultaneous
  // arrivals, so several machines keep finishing at the same instant.
  std::vector<Cost> costs;
  for (std::size_t j = 0; j < 16; ++j) costs.push_back(j % 3 == 0 ? 4.0 : 2.0);
  const Instance instance = Instance::identical(4, costs);
  // No arrivals in the first bin, then a rate so high that every arrival
  // rounds onto the bin edge t = 10.
  const ArrivalPlan plan = ArrivalPlan::diurnal({0.0, 1e20}, 10.0, 3);
  for (const double t : plan.arrival_times(costs.size())) {
    ASSERT_EQ(t, 10.0);
  }
  const auto ect = make_placement("ect");
  OpenSystemOptions options = open_options(plan);
  options.placement = ect.get();
  options.repair_every = 3.0;
  options.repair_budget = 4;

  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  obs::Metrics metrics;
  obs::Tracer tracer;
  const obs::Context context{&metrics, &tracer};
  OpenSystemOptions traced = options;
  traced.obs = &context;
  Schedule schedule(instance);
  const OpenRunReport report = engine.run(schedule, traced, kSeed);
  golden::Digest digest;
  digest.add(report.to_json().dump());
  digest.add(tracer.to_chrome_json().dump());
  EXPECT_EQ(digest.value(), 0x37555113C4D2CB89ULL)
      << "digest 0x" << std::hex << digest.value();

  // Halt after every event in turn. Each completion must take the lowest
  // machine id among those whose horizon equals the new clock.
  OpenCheckpoint before;
  std::size_t tied_completions = 0;
  for (std::uint64_t k = 1; k <= report.events; ++k) {
    OpenCheckpoint after;
    OpenSystemOptions halt_options = options;
    halt_options.halt_after_events = k;
    halt_options.checkpoint_out = &after;
    Schedule halted(instance);
    ASSERT_TRUE(engine.run(halted, halt_options, kSeed).halted);
    if (k > 1 && after.completed == before.completed + 1) {
      std::vector<MachineId> due;
      MachineId finished = kUnassigned;
      for (MachineId i = 0; i < instance.num_machines(); ++i) {
        const JobId j = before.in_service[i];
        if (j == kNoJob) continue;
        if (before.busy_until[i] == after.now) due.push_back(i);
        if (after.completion_time[j] >= 0.0) finished = i;
      }
      ASSERT_FALSE(due.empty()) << "event " << k;
      EXPECT_EQ(finished, due.front()) << "event " << k;
      if (due.size() >= 2) ++tied_completions;
    }
    before = after;
  }
  EXPECT_GT(tied_completions, 0u);
}

TEST(OpenSystemEngine, ResumeRejectsSeedAndShapeMismatches) {
  const Instance instance = gen::identical_uniform(2, 10, 1.0, 10.0, 3);
  const ArrivalPlan plan = ArrivalPlan::poisson(0.1, 1);
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);

  OpenCheckpoint checkpoint;
  OpenSystemOptions halt_options = open_options(plan);
  halt_options.halt_after_events = 2;
  halt_options.checkpoint_out = &checkpoint;
  Schedule halted(instance);
  ASSERT_TRUE(engine.run(halted, halt_options, kSeed).halted);

  OpenSystemOptions resume_options = open_options(plan);
  resume_options.resume = &checkpoint;
  Schedule resumed = checkpoint.make_schedule(instance);
  try {
    engine.run(resumed, resume_options, kSeed + 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint was taken under seed"),
              std::string::npos);
  }

  const Instance other = gen::identical_uniform(3, 10, 1.0, 10.0, 3);
  EXPECT_THROW((void)checkpoint.make_schedule(other), std::invalid_argument);

  // An in-memory checkpoint skips the text codec's checks: run() itself
  // refuses short vectors and a horizon that lies before the clock. The
  // first event is an arrival, so one machine is in service after it.
  OpenCheckpoint serving;
  halt_options.halt_after_events = 1;
  halt_options.checkpoint_out = &serving;
  Schedule first(instance);
  ASSERT_TRUE(engine.run(first, halt_options, kSeed).halted);
  const auto busy =
      std::find_if(serving.in_service.begin(), serving.in_service.end(),
                   [](JobId j) { return j != kNoJob; });
  ASSERT_NE(busy, serving.in_service.end());
  const auto busy_machine = busy - serving.in_service.begin();
  std::vector<OpenCheckpoint> broken(8, serving);
  broken[0].in_service.pop_back();
  broken[1].busy_until.pop_back();
  broken[2].completion_time.pop_back();
  broken[3].queue_seen.pop_back();
  broken[4].busy_until[busy_machine] = serving.now - 1.0;
  broken[5].busy_until[busy_machine] =
      std::numeric_limits<double>::quiet_NaN();
  broken[6].in_service[busy_machine] =
      static_cast<JobId>(instance.num_jobs());
  broken[7].busy_until[busy_machine] = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < broken.size(); ++k) {
    OpenSystemOptions bad_options = open_options(plan);
    bad_options.resume = &broken[k];
    Schedule bad = serving.make_schedule(instance);
    try {
      engine.run(bad, bad_options, kSeed);
      ADD_FAILURE() << "broken checkpoint " << k << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("OpenSystemOptions.resume"),
                std::string::npos)
          << e.what();
    }
  }

  // The counts index the arrival times and size the waiting queue: a run
  // admitting 5 of the 10 jobs refuses a checkpoint that admitted 7, one
  // that completed more jobs than it admitted, and one whose completed
  // and in-service jobs together outnumber the admitted ones. After the
  // first event one job is admitted and in service.
  OpenSystemOptions capped_options = open_options(plan);
  capped_options.num_arrivals = 5;
  OpenCheckpoint capped;
  OpenSystemOptions capped_halt = capped_options;
  capped_halt.halt_after_events = 1;
  capped_halt.checkpoint_out = &capped;
  Schedule capped_first(instance);
  ASSERT_TRUE(engine.run(capped_first, capped_halt, kSeed).halted);
  ASSERT_EQ(capped.submitted, 1u);
  ASSERT_EQ(capped.completed, 0u);
  std::vector<std::pair<OpenCheckpoint, std::string>> miscounted(
      3, {capped, ""});
  miscounted[0].first.submitted = 7;
  miscounted[0].second = "checkpoint submitted 7 exceeds total_arrivals 5";
  miscounted[1].first.completed = 2;
  miscounted[1].second = "checkpoint completed 2 exceeds submitted 1";
  miscounted[2].first.completed = 1;
  miscounted[2].second =
      "checkpoint completed 1 plus 1 in service exceeds submitted 1";
  for (const auto& [bad_checkpoint, message] : miscounted) {
    OpenSystemOptions bad_options = capped_options;
    bad_options.resume = &bad_checkpoint;
    Schedule bad = capped.make_schedule(instance);
    try {
      engine.run(bad, bad_options, kSeed);
      ADD_FAILURE() << "accepted: " << message;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("OpenSystemOptions.resume: " +
                                           message),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(OpenSystemEngine, ResumeRejectsAJobInTwoStatesOrNotYetArrived) {
  // Each count check passes on every tampered file below; only the per-job
  // states give them away. Accepted, the first would complete 401 of 400
  // jobs and wrap jobs_waiting below zero.
  const Instance instance = gen::two_cluster_uniform(6, 3, 400, 1.0, 10.0, 5);
  const ArrivalPlan plan = ArrivalPlan::poisson(0.3, 2);
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  OpenSystemOptions options;
  options.arrivals = &plan;
  options.repair_every = 25.0;
  options.repair_budget = 8;

  OpenCheckpoint halted;
  OpenSystemOptions halt_options = options;
  halt_options.halt_after_events = 50;
  halt_options.checkpoint_out = &halted;
  Schedule first(instance);
  ASSERT_TRUE(engine.run(first, halt_options, kSeed).halted);

  const auto first_job = [&](auto&& pred) {
    for (JobId j = 0; j < instance.num_jobs(); ++j) {
      if (pred(j)) return j;
    }
    ADD_FAILURE() << "no such job in the halted checkpoint";
    return JobId{0};
  };
  const auto serving = [&](JobId j) {
    return std::find(halted.in_service.begin(), halted.in_service.end(), j) !=
           halted.in_service.end();
  };
  const JobId waiting =
      first_job([&](JobId j) { return halted.assignment[j] != kUnassigned; });
  const JobId unseen = first_job([&](JobId j) {
    return halted.assignment[j] == kUnassigned && !serving(j) &&
           halted.completion_time[j] < 0.0;
  });
  const auto idle =
      std::find(halted.in_service.begin(), halted.in_service.end(), kNoJob) -
      halted.in_service.begin();
  ASSERT_LT(static_cast<std::size_t>(idle), halted.in_service.size());
  ASSERT_GT(halted.completed, 0u);

  std::vector<std::pair<OpenCheckpoint, std::string>> tampered(4,
                                                               {halted, ""});
  tampered[0].first.in_service[idle] = waiting;
  tampered[0].first.busy_until[idle] = halted.now + 1.0;
  tampered[0].second = "waiting and in service";
  tampered[1].first.completion_time[waiting] = halted.now;
  ++tampered[1].first.completed;
  tampered[1].second = "waiting and completed";
  tampered[2].first.completion_time[unseen] = halted.now;
  ++tampered[2].first.completed;
  tampered[2].second = "completed before it arrived";
  --tampered[3].first.completed;
  tampered[3].second = "completed count one short";
  for (const auto& [ck, what] : tampered) {
    std::stringstream bytes;
    ck.save(bytes);
    const OpenCheckpoint loaded = OpenCheckpoint::load(bytes);
    OpenSystemOptions resume_options = options;
    resume_options.resume = &loaded;
    Schedule resumed = loaded.make_schedule(instance);
    try {
      const OpenRunReport report = engine.run(resumed, resume_options, kSeed);
      ADD_FAILURE() << what << ": accepted, completed "
                    << report.jobs_completed << " waiting "
                    << report.jobs_waiting;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("OpenSystemOptions.resume"),
                std::string::npos)
          << what << ": " << e.what();
    }
  }
}

// ----- heap vs mmap-backed InstanceStore -----

TEST(OpenSystemEngine, RunIsBackingInvariantOverTheMappedStore) {
  const Instance heap = gen::two_cluster_uniform(4, 2, 48, 1.0, 100.0, 12);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dlb_test_open_" + std::to_string(::getpid()) + ".dlbi"))
          .string();
  core::save_dlbi(heap, path);
  const ArrivalPlan plan = ArrivalPlan::bursty(0.15, 0.01, 60.0, 30.0, 21);
  {
    const core::InstanceStore store = core::InstanceStore::open_mapped(path);
    ASSERT_TRUE(store.instance().is_view());
    expect_identical(run_open(heap, open_options(plan), kSeed),
                     run_open(store.instance(), open_options(plan), kSeed));
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST(OpenSystemEngine, ServiceHorizonPastTheClockIsRefused) {
  // Every service time is finite. Without repair the second job a machine
  // serves starts near 1e308 and would end past the largest double; with
  // repair every 1, already the first end lies past the 2^53 bursts the
  // repair clock can count. Either horizon would leave the loop running
  // (repair bursts firing) forever.
  const Instance instance = Instance::identical(2, {1e308, 1e308, 1e308});
  const ArrivalPlan plan = ArrivalPlan::poisson(1000.0, 1);
  const auto random = make_placement("random");
  const UniformPeerSelector selector;
  const OpenSystemEngine engine(
      pairwise::kernel_registry().get("basic-greedy"), selector);
  for (const double repair_every : {0.0, 1.0}) {
    OpenSystemOptions options = open_options(plan);
    options.placement = random.get();
    options.repair_every = repair_every;
    options.repair_budget = 2;
    Schedule schedule(instance);
    try {
      engine.run(schedule, options, kSeed);
      ADD_FAILURE() << "repair_every " << repair_every
                    << ": an unreachable service horizon was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(" on machine "), std::string::npos) << what;
      // Without repair the refused start is the second one, at 1e308.
      EXPECT_EQ(what.find("from time 1e+308") != std::string::npos,
                repair_every == 0.0)
          << what;
      EXPECT_NE(what.find("its end must be finite"), std::string::npos)
          << what;
    }
  }
}

TEST(OpenSystemEngine, NonFiniteMappedCostIsRefusedWhenTheJobStarts) {
  // The mapped store does not check O(jobs) cost bytes on open, so write a
  // valid file and overwrite one cost with NaN. The marked cost is not the
  // largest, so the header's cached max_cost does not hold its bytes too.
  constexpr Cost kMarked = 1234.5678;
  const Instance heap({{3.0, 5000.0, kMarked, 2.0}}, {0, 0});
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dlb_test_open_nan_" + std::to_string(::getpid()) + ".dlbi"))
          .string();
  core::save_dlbi(heap, path);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
    char marked[sizeof(Cost)];
    std::memcpy(marked, &kMarked, sizeof(Cost));
    const std::size_t at = bytes.find(std::string(marked, sizeof(Cost)));
    ASSERT_NE(at, std::string::npos);
    const Cost nan = std::numeric_limits<Cost>::quiet_NaN();
    file.clear();  // Reading to the end set eofbit.
    file.seekp(static_cast<std::streamoff>(at));
    file.write(reinterpret_cast<const char*>(&nan), sizeof(Cost));
  }
  const ArrivalPlan plan = ArrivalPlan::poisson(0.5, 4);
  OpenSystemOptions options = open_options(plan);
  options.repair_every = 0.0;
  {
    const core::InstanceStore store = core::InstanceStore::open_mapped(path);
    ASSERT_TRUE(std::isnan(store.instance().cost(0, 2)));
    const UniformPeerSelector selector;
    const OpenSystemEngine engine(
        pairwise::kernel_registry().get("basic-greedy"), selector);
    Schedule schedule(store.instance());
    try {
      engine.run(schedule, options, kSeed);
      ADD_FAILURE() << "a NaN service time was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("job 2 on machine"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("must be finite"),
                std::string::npos)
          << e.what();
    }
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

// ----- checkpoint parse errors -----

TEST(OpenCheckpoint, LoadRejectsHostileCountsAndIds) {
  OpenCheckpoint ck;
  ck.num_machines = 2;
  ck.num_jobs = 3;
  ck.assignment = {0, kUnassigned, kUnassigned};
  ck.loads = {1.5, 0.0};
  ck.in_service = {1, kNoJob};
  ck.busy_until = {4.0, 0.0};
  ck.completion_time = {-1.0, -1.0, 2.0};
  ck.queue_seen = {1, 2, 0};
  std::stringstream saved;
  ck.save(saved);
  const std::string text = saved.str();
  {
    std::stringstream intact(text);
    EXPECT_NO_THROW((void)OpenCheckpoint::load(intact));
  }
  const auto tampered = [&](const std::string& from, const std::string& to) {
    std::string copy = text;
    const std::size_t at = copy.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return copy.replace(at, from.size(), to);
  };
  const std::string inf_bits = std::to_string(
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity()));
  const std::string nan_bits = std::to_string(
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN()));
  for (const std::string& bad :
       {tampered("assignment 3", "assignment 999999999999"),
        tampered("assignment 3\n0", "assignment 3\n7"),
        tampered("in_service 2\n1", "in_service 2\n3"),
        tampered("loads 2", "loads 3"),
        tampered("loads 2\n" + std::to_string(std::bit_cast<std::uint64_t>(
                                   1.5)),
                 "loads 2\n" + inf_bits),
        tampered("queue_seen 3", "queue_seen 999999999999"),
        tampered("now 0 ", "now " + nan_bits + " "),
        tampered("busy_until 2\n" + std::to_string(std::bit_cast<std::uint64_t>(
                                        4.0)),
                 "busy_until 2\n" + inf_bits)}) {
    std::stringstream bytes(bad);
    EXPECT_THROW((void)OpenCheckpoint::load(bytes), std::runtime_error)
        << bad;
  }
}

TEST(OpenCheckpoint, LoadRejectsCorruptHeaders) {
  std::stringstream bad("dlb-open-checkpoint v2\n");
  EXPECT_THROW((void)OpenCheckpoint::load(bad), std::runtime_error);
  std::stringstream truncated("dlb-open-checkpoint v1\nseed 1\nmachines");
  EXPECT_THROW((void)OpenCheckpoint::load(truncated), std::runtime_error);
}

}  // namespace
}  // namespace dlb::dist
