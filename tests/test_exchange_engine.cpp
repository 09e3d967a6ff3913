#include "dist/exchange_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "core/cost_model.hpp"
#include "core/generators.hpp"
#include "golden_digest.hpp"
#include "dist/churn.hpp"
#include "dist/parallel_exchange_engine.hpp"
#include "dist/selector_registry.hpp"
#include "obs/obs.hpp"
#include "pairwise/basic_greedy.hpp"
#include "pairwise/kernel_registry.hpp"
#include "pairwise/pairwise_optimal.hpp"
#include "parallel/thread_pool.hpp"

namespace dlb::dist {
namespace {

EngineOptions capped(std::size_t exchanges) {
  EngineOptions options;
  options.max_exchanges = exchanges;
  return options;
}

TEST(ExchangeEngine, RespectsExchangeCap) {
  const Instance inst = gen::identical_uniform(4, 20, 1.0, 10.0, 1);
  Schedule s(inst, gen::random_assignment(inst, 2));
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(3);
  const RunResult result =
      ExchangeEngine(kernel, selector).run(s, capped(17), rng);
  EXPECT_EQ(result.exchanges, 17u);
}

TEST(ExchangeEngine, TraceRecordsEveryExchange) {
  const Instance inst = gen::identical_uniform(4, 20, 1.0, 10.0, 4);
  Schedule s(inst, gen::random_assignment(inst, 5));
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(6);
  EngineOptions options = capped(25);
  options.record_trace = true;
  const RunResult result =
      ExchangeEngine(kernel, selector).run(s, options, rng);
  ASSERT_EQ(result.trace.size(), 25u);
  EXPECT_DOUBLE_EQ(result.trace.back().makespan, result.final_makespan);
  // best_makespan is the running minimum over the initial value + trace.
  Cost best = result.initial_makespan;
  for (const TracePoint& p : result.trace) best = std::min(best, p.makespan);
  EXPECT_DOUBLE_EQ(result.best_makespan, best);
}

TEST(ExchangeEngine, ThresholdStopsEarly) {
  const Instance inst = gen::identical_uniform(8, 80, 1.0, 10.0, 7);
  Schedule s(inst, Assignment::all_on(80, 0));
  const Cost initial = s.makespan();
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(8);
  EngineOptions options = capped(100'000);
  options.stop_threshold = initial / 2.0;
  const RunResult result =
      ExchangeEngine(kernel, selector).run(s, options, rng);
  EXPECT_TRUE(result.reached_threshold);
  EXPECT_LE(result.final_makespan, initial / 2.0);
  EXPECT_EQ(result.exchanges_to_threshold, result.exchanges);
}

TEST(ExchangeEngine, ThresholdAlreadyMetMeansZeroExchanges) {
  const Instance inst = gen::identical_uniform(4, 8, 1.0, 2.0, 9);
  Schedule s(inst, gen::random_assignment(inst, 10));
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(11);
  EngineOptions options = capped(100);
  options.stop_threshold = s.makespan() * 2.0;
  const RunResult result =
      ExchangeEngine(kernel, selector).run(s, options, rng);
  EXPECT_TRUE(result.reached_threshold);
  EXPECT_EQ(result.exchanges, 0u);
}

TEST(ExchangeEngine, StabilityCheckCertifiesConvergence) {
  // Single job type: OJTB provably converges (Lemma 4), so the stability
  // check must fire well before the cap.
  const Instance inst = Instance::identical(3, std::vector<Cost>(9, 2.0));
  Schedule s(inst, gen::random_assignment(inst, 13));
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(14);
  EngineOptions options = capped(100'000);
  options.stability_check_interval = 50;
  const RunResult result =
      ExchangeEngine(kernel, selector).run(s, options, rng);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.exchanges, 100'000u);
}

TEST(ExchangeEngine, DeterministicGivenSeed) {
  const Instance inst = gen::identical_uniform(5, 30, 1.0, 10.0, 15);
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;

  Schedule s1(inst, gen::random_assignment(inst, 16));
  Schedule s2(inst, gen::random_assignment(inst, 16));
  stats::Rng rng1(17);
  stats::Rng rng2(17);
  const RunResult r1 =
      ExchangeEngine(kernel, selector).run(s1, capped(200), rng1);
  const RunResult r2 =
      ExchangeEngine(kernel, selector).run(s2, capped(200), rng2);
  EXPECT_EQ(s1.assignment(), s2.assignment());
  EXPECT_DOUBLE_EQ(r1.final_makespan, r2.final_makespan);
  EXPECT_EQ(r1.changed_exchanges, r2.changed_exchanges);
}

TEST(ExchangeEngine, RoundRobinTouchesEveryInitiatorPerRound) {
  // With the round-robin policy and m machines, after exactly m exchanges
  // every machine has initiated exactly once. We verify via a counting
  // kernel (a PairKernel that never changes the schedule).
  class CountingKernel final : public pairwise::PairKernel {
   public:
    bool balance(Schedule&, MachineId a, MachineId) const override {
      ++counts[a];
      return false;
    }
    std::string_view name() const noexcept override { return "count"; }
    mutable std::vector<int> counts = std::vector<int>(6, 0);
  };
  const Instance inst = gen::identical_uniform(6, 6, 1.0, 2.0, 18);
  Schedule s(inst, gen::random_assignment(inst, 19));
  CountingKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(20);
  ExchangeEngine(kernel, selector).run(s, capped(12), rng);
  for (int c : kernel.counts) EXPECT_EQ(c, 2);  // two full rounds
}

TEST(ExchangeEngine, ReportsMigrations) {
  const Instance inst = gen::identical_uniform(4, 24, 1.0, 10.0, 23);
  Schedule s(inst, Assignment::all_on(24, 0));
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(24);
  const RunResult result =
      ExchangeEngine(kernel, selector).run(s, capped(100), rng);
  EXPECT_GT(result.migrations, 0u);
  EXPECT_EQ(result.migrations, s.migrations());
}

// ----- no-op paths -----
//
// When no exchange can improve anything, the kernels must take the no-op
// path: not merely "end near where they started" but leave the LoadTable
// bitwise untouched — a remove-then-re-add of the same job would
// accumulate floating-point drift that the exactly-zero checks below
// would catch.

std::vector<Cost> loads_of(const Schedule& s) {
  std::vector<Cost> loads(s.num_machines());
  for (MachineId i = 0; i < s.num_machines(); ++i) loads[i] = s.load(i);
  return loads;
}

TEST(ExchangeEngine, EqualLoadsAreABitwiseNoOp) {
  // 4 identical machines, one job of cost 2 each: perfectly balanced.
  const Instance inst = Instance::identical(4, {2.0, 2.0, 2.0, 2.0});
  Schedule s(inst);
  for (JobId j = 0; j < 4; ++j) s.assign(j, j);
  const std::vector<Cost> before = loads_of(s);
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  stats::Rng rng(25);
  const RunResult result =
      ExchangeEngine(kernel, selector).run(s, capped(50), rng);
  EXPECT_EQ(result.migrations, 0u);
  EXPECT_EQ(result.changed_exchanges, 0u);
  const std::vector<Cost> after = loads_of(s);
  for (MachineId i = 0; i < 4; ++i) {
    EXPECT_EQ(after[i], before[i]);  // Exact, not approximate.
  }
}

TEST(ExchangeEngine, SingleJobMachinesAreABitwiseNoOp) {
  // One job per machine, each strictly cheapest on its host (no ties, so
  // Basic Greedy's tie-to-initiator rule never fires): every ordered pair
  // must refuse to touch the schedule.
  const Instance inst({{1.0, 9.0, 9.0}, {9.0, 1.0, 9.0}, {9.0, 9.0, 1.0}},
                      {0, 1, 2}, {1.0, 1.0, 1.0});
  Schedule s(inst);
  for (JobId j = 0; j < 3; ++j) s.assign(j, j);
  const std::vector<Cost> before = loads_of(s);
  const pairwise::BasicGreedyKernel greedy;
  const pairwise::PairwiseOptimalKernel optimal;
  for (const pairwise::PairKernel* kernel :
       {static_cast<const pairwise::PairKernel*>(&greedy),
        static_cast<const pairwise::PairKernel*>(&optimal)}) {
    for (MachineId a = 0; a < 3; ++a) {
      for (MachineId b = 0; b < 3; ++b) {
        if (a == b) continue;
        EXPECT_FALSE(kernel->balance(s, a, b)) << kernel->name();
      }
    }
    const std::vector<Cost> after = loads_of(s);
    for (MachineId i = 0; i < 3; ++i) {
      EXPECT_EQ(after[i], before[i]) << kernel->name();
    }
  }
  EXPECT_EQ(s.migrations(), 0u);
}

TEST(ExchangeEngine, NormalizedThresholdTime) {
  RunResult result;
  result.reached_threshold = true;
  result.exchanges_to_threshold = 96;
  EXPECT_DOUBLE_EQ(result.normalized_threshold_time(32), 3.0);
}

// ----- golden cross-commit pins -----
//
// The byte-identity tests elsewhere compare two runs of one build, so a
// lifecycle change that shifts both runs the same way would pass them.
// These pin FNV-1a digests of everything a run emits — report JSON,
// schedule fingerprint, metrics snapshot, tracer events, flight samples,
// trace vectors and saved checkpoint bytes — as constants, on 3 seeds per
// configuration. A digest only changes when an engine's output does.

enum class GoldenConfig {
  kChurnHaltResume,  ///< churn, checkpoint_every 2, halt at 3, resume
  kThreshold,        ///< stop_threshold
  kStability,        ///< stability_check_interval
  kMaxLoad,          ///< load-aware selector
  kPool,             ///< parallel engine on a 4-thread pool (with churn)
};

constexpr std::array<std::uint64_t, 3> kGoldenSeeds = {1, 2, 3};

using dlb::golden::Digest;

/// Every sink a golden run writes to.
struct GoldenSinks {
  obs::Metrics metrics;
  obs::Tracer tracer;
  obs::FlightRecorder flight;
  obs::Context context{&metrics, &tracer, &flight};
};

void digest_common(Digest& digest, const RunReport& report,
                   const Schedule& schedule, const GoldenSinks& sinks,
                   const Checkpoint* checkpoint) {
  digest.add(report.to_json().dump());
  digest.add(schedule.fingerprint());
  digest.add(sinks.metrics.snapshot().dump());
  digest.add(sinks.tracer.to_chrome_json().dump());
  digest.add(sinks.flight.to_json().dump());
  if (checkpoint != nullptr) {
    std::ostringstream bytes;
    checkpoint->save(bytes);
    digest.add(bytes.str());
  }
}

/// Two job types on 7 machines: Basic Greedy certifies stability within a
/// few hundred exchanges, so the stability configuration stops early.
Instance golden_instance(std::uint64_t seed) {
  return gen::typed_uniform(7, 42, 2, 1.0, 100.0, seed);
}

ChurnPlan golden_churn(std::uint64_t seed) {
  ChurnPlan plan;
  plan.seed = seed;
  plan.events = {{2, ChurnKind::kCrash, 6},
                 {3, ChurnKind::kDrain, 5},
                 {5, ChurnKind::kJoin, 6}};
  return plan;
}

/// Applies the configuration's option overrides to either engine's options.
template <typename Options>
void configure(Options& options, GoldenConfig config, const Schedule& start,
               const ChurnPlan& churn) {
  options.record_trace = true;
  switch (config) {
    case GoldenConfig::kChurnHaltResume:
    case GoldenConfig::kPool:
      options.max_exchanges = 150;
      options.churn = &churn;
      options.checkpoint_every = 2;
      break;
    case GoldenConfig::kThreshold:
      options.max_exchanges = 5000;
      options.stop_threshold = start.makespan() * 0.2;
      break;
    case GoldenConfig::kStability:
      options.max_exchanges = 5000;
      options.stability_check_interval = 5;
      break;
    case GoldenConfig::kMaxLoad:
      options.max_exchanges = 120;
      break;
  }
}

std::uint64_t golden_sequential(GoldenConfig config, std::uint64_t seed) {
  const Instance inst = golden_instance(seed);
  const ChurnPlan churn = golden_churn(seed);
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector uniform;
  const MaxLoadPeerSelector max_load;
  const PeerSelector& selector =
      config == GoldenConfig::kMaxLoad ? static_cast<const PeerSelector&>(
                                             max_load)
                                       : uniform;
  const ExchangeEngine engine(kernel, selector);
  Digest digest;
  const auto run = [&](Schedule& schedule, EngineOptions options,
                       const Checkpoint* resume,
                       std::optional<std::uint64_t> halt) {
    GoldenSinks sinks;
    Checkpoint saved;
    configure(options, config, schedule, churn);
    options.obs = &sinks.context;
    options.resume = resume;
    options.halt_after_epoch = halt;
    options.checkpoint_out = &saved;
    stats::Rng rng(seed * 7 + 1);
    const RunResult result = engine.run(schedule, options, rng);
    digest_common(digest, result, schedule, sinks, &saved);
    digest.add(result.trace.size());
    for (const TracePoint& point : result.trace) {
      digest.add(point.makespan);
      digest.add(point.count);
      digest.add(point.migrations);
    }
    return saved;
  };
  Schedule schedule =
      config == GoldenConfig::kThreshold
          ? Schedule(inst, Assignment::all_on(inst.num_jobs(), 0))
          : Schedule(inst, gen::random_assignment(inst, seed + 100));
  if (config == GoldenConfig::kChurnHaltResume) {
    const Checkpoint halted = run(schedule, EngineOptions{}, nullptr, 3);
    std::stringstream bytes;
    halted.save(bytes);
    const Checkpoint restored = Checkpoint::load(bytes);
    Schedule resumed = restored.make_schedule(inst);
    run(resumed, EngineOptions{}, &restored, std::nullopt);
  } else {
    run(schedule, EngineOptions{}, nullptr, std::nullopt);
  }
  return digest.value();
}

std::uint64_t golden_parallel(GoldenConfig config, std::uint64_t seed) {
  const Instance inst = golden_instance(seed);
  const ChurnPlan churn = golden_churn(seed);
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector uniform;
  const MaxLoadPeerSelector max_load;
  const PeerSelector& selector =
      config == GoldenConfig::kMaxLoad ? static_cast<const PeerSelector&>(
                                             max_load)
                                       : uniform;
  const ParallelExchangeEngine engine(kernel, selector);
  parallel::ThreadPool pool(4);
  Digest digest;
  const auto run = [&](Schedule& schedule, const Checkpoint* resume,
                       std::optional<std::uint64_t> halt) {
    GoldenSinks sinks;
    Checkpoint saved;
    ParallelEngineOptions options;
    configure(options, config, schedule, churn);
    options.pool = config == GoldenConfig::kPool ? &pool : nullptr;
    options.obs = &sinks.context;
    options.resume = resume;
    options.halt_after_epoch = halt;
    options.checkpoint_out = &saved;
    const ParallelRunResult result =
        engine.run(schedule, options, seed * 7 + 1);
    digest_common(digest, result, schedule, sinks, &saved);
    digest.add(result.trace.size());
    for (const TracePoint& point : result.trace) {
      digest.add(point.makespan);
      digest.add(point.count);
      digest.add(point.migrations);
    }
    return saved;
  };
  Schedule schedule =
      config == GoldenConfig::kThreshold
          ? Schedule(inst, Assignment::all_on(inst.num_jobs(), 0))
          : Schedule(inst, gen::random_assignment(inst, seed + 100));
  if (config == GoldenConfig::kChurnHaltResume ||
      config == GoldenConfig::kPool) {
    const Checkpoint halted = run(schedule, nullptr, 3);
    std::stringstream bytes;
    halted.save(bytes);
    const Checkpoint restored = Checkpoint::load(bytes);
    Schedule resumed = restored.make_schedule(inst);
    run(resumed, &restored, std::nullopt);
  } else {
    run(schedule, nullptr, std::nullopt);
  }
  return digest.value();
}

void expect_golden(std::uint64_t (*golden)(GoldenConfig, std::uint64_t),
                   GoldenConfig config,
                   const std::array<std::uint64_t, 3>& expected) {
  for (std::size_t k = 0; k < kGoldenSeeds.size(); ++k) {
    const std::uint64_t actual = golden(config, kGoldenSeeds[k]);
    EXPECT_EQ(actual, expected[k])
        << "seed " << kGoldenSeeds[k] << ": digest 0x" << std::hex << actual;
  }
}

TEST(EngineGolden, SequentialChurnHaltResume) {
  expect_golden(golden_sequential, GoldenConfig::kChurnHaltResume,
                {0xC14391F8C73BA247ULL, 0xA58E169FEF4A6D51ULL,
                 0x3661A281AE387BD0ULL});
}

TEST(EngineGolden, SequentialThreshold) {
  expect_golden(golden_sequential, GoldenConfig::kThreshold,
                {0x82ECEDF70411DB1EULL, 0x515B2FE1457CD9ADULL,
                 0x03D1A275630296BDULL});
}

TEST(EngineGolden, SequentialStabilityInterval) {
  expect_golden(golden_sequential, GoldenConfig::kStability,
                {0xA59472F0160CC593ULL, 0x7A1DD9A36F39DBF4ULL,
                 0x53C7D94848006C2EULL});
}

TEST(EngineGolden, SequentialMaxLoadSelector) {
  expect_golden(golden_sequential, GoldenConfig::kMaxLoad,
                {0x06847762C07101F3ULL, 0x3494C15863471CBCULL,
                 0xC0565D68D2B3AA7FULL});
}

TEST(EngineGolden, ParallelChurnHaltResume) {
  expect_golden(golden_parallel, GoldenConfig::kChurnHaltResume,
                {0x004288A32D27576DULL, 0x1675BE8EE5ADC488ULL,
                 0x5BE792A871EEEE71ULL});
}

TEST(EngineGolden, ParallelThreshold) {
  expect_golden(golden_parallel, GoldenConfig::kThreshold,
                {0xB021864CDDACC1F6ULL, 0xB2CC61DBC2ABA952ULL,
                 0x584D50F41DFDBCA9ULL});
}

TEST(EngineGolden, ParallelStabilityInterval) {
  expect_golden(golden_parallel, GoldenConfig::kStability,
                {0x913CBDCF8C046590ULL, 0x78C1E730F932B749ULL,
                 0xEDFF8BD3C37E4373ULL});
}

TEST(EngineGolden, ParallelMaxLoadSelector) {
  expect_golden(golden_parallel, GoldenConfig::kMaxLoad,
                {0xAA42C8F2652F3023ULL, 0x500E08C3CF188978ULL,
                 0x189E44A60EC4CB47ULL});
}

TEST(EngineGolden, ParallelFourThreadPool) {
  expect_golden(golden_parallel, GoldenConfig::kPool,
                {0x004288A32D27576DULL, 0x1675BE8EE5ADC488ULL,
                 0x5BE792A871EEEE71ULL});
}

// ----- SequentialRepair: budgeted ExchangeEngine runs, burst after burst -----

// One runner over consecutive bursts against a fresh ExchangeEngine run per
// burst with max_exchanges = budget: the schedule, the generator and the
// tallies agree after every burst, for budgets inside one epoch, exactly
// one, and several, with a risk-aware kernel whose prepare() matters and a
// load-aware selector that reads the schedule.
TEST(SequentialRepair, EachBurstIsABudgetedExchangeEngineRun) {
  Instance instance = gen::two_cluster_uniform(4, 3, 90, 1.0, 100.0, 9);
  instance.set_cost_model(cost::CostModel(std::vector<cost::Dist>(
      instance.num_jobs(), cost::parse_dist("lognormal:0.5"))));
  const std::size_t m = instance.num_machines();
  const Assignment initial = gen::random_assignment(instance, 4);
  for (const char* kernel_name : {"dlb2c", "dlb2c_q95", "basic-greedy"}) {
    const pairwise::PairKernel& kernel =
        pairwise::kernel_registry().get(kernel_name);
    for (const char* selector_name : {"uniform", "max-load"}) {
      const auto selector = selector_registry().create(selector_name);
      SequentialRepair runner(kernel, *selector, m);
      Schedule by_runner(instance, initial);
      Schedule by_engine(instance, initial);
      stats::Rng runner_rng(77);
      stats::Rng engine_rng(77);
      for (const std::size_t budget :
           {std::size_t{1}, m - 1, m, m + 1, 3 * m + 2, std::size_t{2}}) {
        const SequentialRepair::Tally tally =
            runner.run(by_runner, budget, runner_rng);
        const RunResult result = ExchangeEngine(kernel, *selector)
                                     .run(by_engine, capped(budget),
                                          engine_rng);
        const std::string where = std::string(kernel_name) + " / " +
                                  selector_name + ", budget " +
                                  std::to_string(budget);
        EXPECT_EQ(tally.exchanges, result.exchanges) << where;
        EXPECT_EQ(tally.changed, result.changed_exchanges) << where;
        EXPECT_EQ(runner_rng.state(), engine_rng.state()) << where;
        ASSERT_EQ(by_runner.fingerprint(), by_engine.fingerprint()) << where;
        for (MachineId i = 0; i < m; ++i) {
          ASSERT_EQ(by_runner.load(i), by_engine.load(i)) << where;
          ASSERT_EQ(by_runner.decision_load(i), by_engine.decision_load(i))
              << where;
        }
      }
      EXPECT_GT(by_runner.migrations(), 0u) << kernel_name;
    }
  }
}

TEST(SequentialRepair, ZeroBudgetDrawsNothing) {
  const Instance instance = gen::identical_uniform(3, 12, 1.0, 10.0, 2);
  Schedule schedule(instance, gen::random_assignment(instance, 1));
  const std::uint64_t before = schedule.fingerprint();
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  SequentialRepair runner(kernel, selector, instance.num_machines());
  stats::Rng rng(5);
  const stats::Rng::State state = rng.state();
  const SequentialRepair::Tally tally = runner.run(schedule, 0, rng);
  EXPECT_EQ(tally.exchanges, 0u);
  EXPECT_EQ(rng.state(), state);
  EXPECT_EQ(schedule.fingerprint(), before);
}

}  // namespace
}  // namespace dlb::dist
