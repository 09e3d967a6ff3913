#include "dist/parallel_exchange_engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/generators.hpp"
#include "core/validation.hpp"
#include "dist/selector_registry.hpp"
#include "golden_digest.hpp"
#include "obs/obs.hpp"
#include "pairwise/kernel_registry.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace dlb::dist {
namespace {

const pairwise::PairKernel& greedy() {
  return pairwise::kernel_registry().get("basic-greedy");
}

const PeerSelector& uniform() { return selector_registry().get("uniform"); }

ParallelEngineOptions capped(std::size_t exchanges) {
  ParallelEngineOptions options;
  options.max_exchanges = exchanges;
  return options;
}

TEST(ParallelExchangeEngine, ReducesMakespanAndRespectsCap) {
  const Instance inst = gen::identical_uniform(8, 80, 1.0, 10.0, 1);
  Schedule s(inst, Assignment::all_on(80, 0));
  const Cost initial = s.makespan();
  const ParallelRunResult result =
      ParallelExchangeEngine(greedy(), uniform()).run(s, capped(64), 2);
  EXPECT_EQ(result.exchanges, 64u);
  EXPECT_LT(result.final_makespan, initial);
  EXPECT_DOUBLE_EQ(result.initial_makespan, initial);
  EXPECT_LE(result.best_makespan, result.final_makespan);
  EXPECT_GT(result.epochs, 0u);
  EXPECT_TRUE(is_complete_partition(s));
  EXPECT_TRUE(s.check_consistency());
}

// The determinism contract of docs/parallelism.md: schedule, RunReport,
// obs counters and trace bytes must be bitwise identical at any thread
// count, including no pool at all.
TEST(ParallelExchangeEngine, ThreadCountInvariance) {
  const Instance inst = gen::two_cluster_uniform(12, 6, 180, 1.0, 100.0, 3);

  struct Run {
    Schedule schedule;
    ParallelRunResult result;
    obs::Metrics metrics;
    obs::Tracer tracer;
    explicit Run(const Instance& instance)
        : schedule(instance, gen::random_assignment(instance, 4)) {}
  };
  Run inline_run(inst);
  Run pooled_run(inst);

  const auto go = [](Run& run, parallel::ThreadPool* pool) {
    ParallelEngineOptions options = capped(500);
    options.record_trace = true;
    options.pool = pool;
    const obs::Context obs{&run.metrics, &run.tracer};
    options.obs = &obs;
    run.result = ParallelExchangeEngine(greedy(), uniform())
                     .run(run.schedule, options, 5);
  };
  go(inline_run, nullptr);
  parallel::ThreadPool pool(4);
  go(pooled_run, &pool);

  EXPECT_EQ(inline_run.schedule.assignment(), pooled_run.schedule.assignment());
  const ParallelRunResult& a = inline_run.result;
  const ParallelRunResult& b = pooled_run.result;
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  EXPECT_EQ(a.changed_exchanges, b.changed_exchanges);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.conflicts, b.conflicts);
  EXPECT_EQ(a.peer_retries, b.peer_retries);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t e = 0; e < a.trace.size(); ++e) {
    EXPECT_EQ(a.trace[e].makespan, b.trace[e].makespan);
    EXPECT_EQ(a.trace[e].count, b.trace[e].count);
    EXPECT_EQ(a.trace[e].migrations, b.trace[e].migrations);
  }
  for (const char* name : {"parexchange.sessions", "parexchange.conflicts",
                           "parexchange.retries", "parexchange.epochs"}) {
    EXPECT_EQ(inline_run.metrics.counter(name).value(),
              pooled_run.metrics.counter(name).value())
        << name;
  }
  // Trace bytes, not just event counts: order, timestamps and args all
  // come from the sequential commit phase.
  EXPECT_EQ(inline_run.tracer.to_chrome_json().dump(),
            pooled_run.tracer.to_chrome_json().dump());
}

// Sessions are dispatched largest pool first and claimed one at a time, so
// with a few crowded machines the workers finish them in an order that
// changes with the thread count. Everything the run emits must not.
std::uint64_t skewed_pool_digest(parallel::ThreadPool* pool) {
  // 24 two-cluster machines; machines 0, 1 and 13 start with 90% of the
  // 2400 jobs, so a few sessions pool hundreds of jobs and most pool tens.
  const Instance inst = gen::two_cluster_uniform(12, 12, 2400, 1.0, 100.0, 41);
  std::vector<MachineId> machine_of(inst.num_jobs());
  stats::Rng rng(42);
  for (MachineId& machine : machine_of) {
    const std::array<MachineId, 3> crowded = {0, 1, 13};
    machine = rng.below(10) != 0 ? crowded[rng.below(crowded.size())]
                                 : static_cast<MachineId>(rng.below(24));
  }
  Schedule schedule(inst, Assignment(machine_of));
  obs::Metrics metrics;
  obs::Tracer tracer;
  const obs::Context obs{&metrics, &tracer};
  ParallelEngineOptions options = capped(600);
  options.record_trace = true;
  options.pool = pool;
  options.obs = &obs;
  const ParallelRunResult result =
      ParallelExchangeEngine(pairwise::kernel_registry().get("dlb2c"),
                             uniform())
          .run(schedule, options, 43);
  golden::Digest digest;
  digest.add(result.to_json().dump());
  digest.add(schedule.fingerprint());
  digest.add(metrics.snapshot().dump());
  digest.add(tracer.to_chrome_json().dump());
  for (const TracePoint& point : result.trace) {
    digest.add(point.makespan);
    digest.add(point.count);
    digest.add(point.migrations);
  }
  return digest.value();
}

TEST(ParallelExchangeEngine, SkewedPoolsKeepOneDigestAtEveryThreadCount) {
  // Pinned from the engine before sessions were dispatched largest first.
  constexpr std::uint64_t kPinned = 0x051701287AD6B248ULL;
  EXPECT_EQ(skewed_pool_digest(nullptr), kPinned);
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    parallel::ThreadPool pool(threads);
    const std::uint64_t digest = skewed_pool_digest(&pool);
    EXPECT_EQ(digest, kPinned)
        << threads << " threads: digest 0x" << std::hex << digest;
  }
}

TEST(ParallelExchangeEngine, DeterministicReplay) {
  const Instance inst = gen::identical_uniform(6, 48, 1.0, 10.0, 6);
  Schedule s1(inst, gen::random_assignment(inst, 7));
  Schedule s2(inst, gen::random_assignment(inst, 7));
  const ParallelExchangeEngine engine(greedy(), uniform());
  const ParallelRunResult r1 = engine.run(s1, capped(200), 8);
  const ParallelRunResult r2 = engine.run(s2, capped(200), 8);
  EXPECT_EQ(s1.assignment(), s2.assignment());
  EXPECT_EQ(r1.to_json().dump(), r2.to_json().dump());
  EXPECT_EQ(r1.changed_exchanges, r2.changed_exchanges);
  EXPECT_EQ(r1.conflicts, r2.conflicts);
}

TEST(ParallelExchangeEngine, ThresholdStopsAtEpochBoundary) {
  const Instance inst = gen::identical_uniform(8, 80, 1.0, 10.0, 9);
  Schedule s(inst, Assignment::all_on(80, 0));
  const Cost initial = s.makespan();
  ParallelEngineOptions options = capped(100'000);
  options.stop_threshold = initial / 2.0;
  const ParallelRunResult result =
      ParallelExchangeEngine(greedy(), uniform()).run(s, options, 10);
  EXPECT_TRUE(result.reached_threshold);
  EXPECT_LE(result.final_makespan, initial / 2.0);
  EXPECT_EQ(result.exchanges_to_threshold, result.exchanges);
  // The threshold is only evaluated after a full epoch commits.
  EXPECT_GE(result.epochs, 1u);
}

TEST(ParallelExchangeEngine, ThresholdAlreadyMetMeansZeroExchanges) {
  const Instance inst = gen::identical_uniform(4, 8, 1.0, 2.0, 11);
  Schedule s(inst, gen::random_assignment(inst, 12));
  ParallelEngineOptions options = capped(100);
  options.stop_threshold = s.makespan() * 2.0;
  const ParallelRunResult result =
      ParallelExchangeEngine(greedy(), uniform()).run(s, options, 13);
  EXPECT_TRUE(result.reached_threshold);
  EXPECT_EQ(result.exchanges, 0u);
  EXPECT_EQ(result.epochs, 0u);
}

TEST(ParallelExchangeEngine, StabilityCheckCertifiesConvergence) {
  // Single job type: the greedy kernel provably converges (Lemma 4), so
  // the stability certificate must fire well before the cap.
  const Instance inst = Instance::identical(4, std::vector<Cost>(16, 2.0));
  Schedule s(inst, gen::random_assignment(inst, 14));
  ParallelEngineOptions options = capped(100'000);
  options.stability_check_interval = 25;
  const ParallelRunResult result =
      ParallelExchangeEngine(greedy(), uniform()).run(s, options, 15);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.exchanges, 100'000u);
}

TEST(ParallelExchangeEngine, ReportsMigrationsDelta) {
  const Instance inst = gen::identical_uniform(4, 24, 1.0, 10.0, 16);
  Schedule s(inst, Assignment::all_on(24, 0));
  const ParallelRunResult result =
      ParallelExchangeEngine(greedy(), uniform()).run(s, capped(100), 17);
  EXPECT_GT(result.migrations, 0u);
  EXPECT_EQ(result.migrations, s.migrations());
}

TEST(ParallelExchangeEngine, EpochTraceEndsAtFinalMakespan) {
  const Instance inst = gen::identical_uniform(6, 60, 1.0, 10.0, 18);
  Schedule s(inst, Assignment::all_on(60, 0));
  ParallelEngineOptions options = capped(90);
  options.record_trace = true;
  const ParallelRunResult result =
      ParallelExchangeEngine(greedy(), uniform()).run(s, options, 19);
  ASSERT_EQ(result.trace.size(), result.epochs);
  EXPECT_DOUBLE_EQ(result.trace.back().makespan, result.final_makespan);
  EXPECT_EQ(result.trace.back().migrations, result.migrations);
  std::uint64_t sessions = 0;
  for (const TracePoint& point : result.trace) {
    sessions += point.count;
  }
  EXPECT_EQ(sessions, result.exchanges);
}

TEST(ParallelExchangeEngine, RejectsDegenerateInputs) {
  const Instance one = gen::identical_uniform(1, 4, 1.0, 2.0, 22);
  Schedule s(one, Assignment::all_on(4, 0));
  const ParallelExchangeEngine engine(greedy(), uniform());
  EXPECT_THROW((void)engine.run(s, capped(10), 23), std::invalid_argument);

  const Instance two = gen::identical_uniform(4, 8, 1.0, 2.0, 24);
  Schedule s2(two, gen::random_assignment(two, 25));
  ParallelEngineOptions options = capped(10);
  options.stability_check_interval = 0;
  EXPECT_THROW((void)engine.run(s2, options, 26), std::invalid_argument);
}

}  // namespace
}  // namespace dlb::dist
