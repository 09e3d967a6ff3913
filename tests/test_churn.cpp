#include "dist/churn.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/generators.hpp"
#include "dist/exchange_engine.hpp"
#include "dist/parallel_exchange_engine.hpp"
#include "pairwise/basic_greedy.hpp"

namespace dlb::dist {
namespace {

TEST(ChurnPlan, KindNamesRoundTrip) {
  for (const ChurnKind kind :
       {ChurnKind::kJoin, ChurnKind::kDrain, ChurnKind::kCrash}) {
    EXPECT_EQ(churn_kind_by_name(churn_kind_name(kind)), kind);
  }
  EXPECT_THROW((void)churn_kind_by_name("reboot"), std::invalid_argument);
}

TEST(ChurnPlan, ValidateNamesTheOffendingEvent) {
  ChurnPlan plan;
  plan.events = {{3, ChurnKind::kCrash, 1}, {2, ChurnKind::kCrash, 0}};
  try {
    plan.validate(4);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "ChurnPlan: invalid events[1].epoch: events must be ordered "
              "by epoch (saw 2 after 3)");
  }
}

TEST(ChurnPlan, ValidateRejectsOutOfRangeMachine) {
  ChurnPlan plan;
  plan.events = {{1, ChurnKind::kCrash, 9}};
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
}

TEST(ChurnPlan, ValidateRejectsDepartureOfDeadMachine) {
  ChurnPlan plan;
  plan.events = {{1, ChurnKind::kCrash, 0}, {2, ChurnKind::kDrain, 0}};
  EXPECT_THROW(plan.validate(3), std::invalid_argument);
}

TEST(ChurnPlan, ValidateRejectsJoinOfLiveMachine) {
  // A machine whose first event is a join starts dead, so the only way to
  // join a live machine is to join it twice.
  ChurnPlan plan;
  plan.events = {{1, ChurnKind::kJoin, 1}, {2, ChurnKind::kJoin, 1}};
  EXPECT_THROW(plan.validate(3), std::invalid_argument);
}

TEST(ChurnPlan, ValidateRejectsEmptyingTheLiveSet) {
  ChurnPlan plan;
  plan.events = {{1, ChurnKind::kCrash, 0}, {2, ChurnKind::kCrash, 1}};
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
}

TEST(ChurnPlan, JoinThenDrainWithinOneEpochIsValid) {
  // Epoch 3 rejoins machine 0 and immediately drains machine 1: the join
  // earlier in the same batch is the drain's only legal migration target.
  ChurnPlan plan;
  plan.events = {{1, ChurnKind::kCrash, 0},
                 {3, ChurnKind::kJoin, 0},
                 {3, ChurnKind::kDrain, 1}};
  EXPECT_NO_THROW(plan.validate(2));
}

TEST(ChurnPlan, InitialLiveMarksPreJoinMachinesDead) {
  ChurnPlan plan;
  plan.events = {{2, ChurnKind::kJoin, 1}, {3, ChurnKind::kCrash, 0}};
  const std::vector<std::uint8_t> mask = plan.initial_live(3);
  EXPECT_EQ(mask, (std::vector<std::uint8_t>{1, 0, 1}));
}

TEST(ChurnPlan, SaveLoadRoundTrips) {
  ChurnPlan plan;
  plan.seed = 77;
  plan.redispatch_per_epoch = 3;
  plan.events = {{1, ChurnKind::kCrash, 2},
                 {4, ChurnKind::kJoin, 2},
                 {5, ChurnKind::kDrain, 0}};
  std::stringstream bytes;
  plan.save(bytes);
  const ChurnPlan loaded = ChurnPlan::load(bytes);
  EXPECT_EQ(loaded.seed, plan.seed);
  EXPECT_EQ(loaded.redispatch_per_epoch, plan.redispatch_per_epoch);
  EXPECT_EQ(loaded.events, plan.events);
}

TEST(ChurnPlan, LoadRejectsBadHeader) {
  std::stringstream bytes("dlb-instance v1\n");
  EXPECT_THROW((void)ChurnPlan::load(bytes), std::runtime_error);
}

TEST(ChurnPlan, LoadRejectsHostileEventListsWithoutAllocating) {
  // The event count has no header bound, so the list grows as it is read:
  // a huge claimed count fails as truncated instead of allocating it.
  std::stringstream huge(
      "dlb-churn-plan v1\nseed 1 redispatch_per_epoch 0\n"
      "events 999999999999\n1 crash 0\n");
  EXPECT_THROW((void)ChurnPlan::load(huge), std::runtime_error);
  std::stringstream unknown(
      "dlb-churn-plan v1\nseed 1 redispatch_per_epoch 0\n"
      "events 1\n1 reboot 0\n");
  EXPECT_THROW((void)ChurnPlan::load(unknown), std::runtime_error);
}

TEST(ChurnPlan, LoadRefusesANegativeEventMachine) {
  // "-4294967295" read into a 32-bit machine id would be machine 1.
  ChurnPlan plan;
  plan.events = {{1, ChurnKind::kCrash, 1}};
  std::stringstream saved;
  plan.save(saved);
  std::string text = saved.str();
  text.replace(text.find("crash 1"), 7, "crash -4294967295");
  std::stringstream bytes(text);
  try {
    (void)ChurnPlan::load(bytes);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "ChurnPlan::load: bad event machine entry \"-4294967295\"");
  }
}

TEST(ChurnPlan, RandomPlansAlwaysValidate) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const ChurnPlan plan = ChurnPlan::random(5, 8, 0.4, 0.3, 0.4, seed);
    EXPECT_NO_THROW(plan.validate(5)) << "seed " << seed;
  }
}

TEST(ChurnRuntime, InactiveRuntimeListsAllMachinesLive) {
  const ChurnRuntime runtime(nullptr, 4);
  EXPECT_FALSE(runtime.active());
  EXPECT_EQ(runtime.live_machines(),
            (std::vector<MachineId>{0, 1, 2, 3}));
  for (MachineId i = 0; i < 4; ++i) {
    EXPECT_EQ(runtime.live_index(i), i);
  }
  EXPECT_TRUE(runtime.exhausted());
}

TEST(ChurnRuntime, ApplyInitialOrphansJobsOnPreJoinMachines) {
  const Instance inst = gen::identical_uniform(3, 9, 1.0, 2.0, 1);
  Schedule schedule(inst, Assignment::round_robin(9, 3));
  ChurnPlan plan;
  plan.events = {{2, ChurnKind::kJoin, 1}};
  ChurnRuntime runtime(&plan, 3);
  runtime.apply_initial(schedule, nullptr);
  EXPECT_FALSE(schedule.is_live(1));
  EXPECT_TRUE(schedule.jobs_on(1).empty());
  // Round-robin put jobs 1, 4, 7 on machine 1; all three are queued.
  EXPECT_EQ(runtime.pending(), (std::vector<JobId>{1, 4, 7}));
  EXPECT_EQ(runtime.counters().orphaned, 3u);
}

TEST(ChurnRuntime, CrashOrphansAndRedispatchBudgetIsHonoured) {
  const Instance inst = gen::identical_uniform(3, 9, 1.0, 2.0, 2);
  Schedule schedule(inst, Assignment::round_robin(9, 3));
  ChurnPlan plan;
  plan.seed = 11;
  plan.redispatch_per_epoch = 1;
  plan.events = {{1, ChurnKind::kCrash, 2}};
  ChurnRuntime runtime(&plan, 3);
  runtime.apply_initial(schedule, nullptr);

  // Epoch 1: machine 2 crashes; its residents are queued but not yet
  // eligible (they were orphaned by this epoch's own crash).
  EXPECT_TRUE(runtime.begin_epoch(1, schedule, nullptr, 0.0));
  EXPECT_FALSE(schedule.is_live(2));
  EXPECT_EQ(runtime.counters().crashes, 1u);
  EXPECT_EQ(runtime.counters().orphaned, 3u);
  EXPECT_EQ(runtime.counters().redispatched, 0u);
  EXPECT_EQ(runtime.pending().size(), 3u);

  // The budget of one drains the queue one job per epoch, FIFO.
  for (std::uint64_t epoch = 2; epoch <= 4; ++epoch) {
    runtime.begin_epoch(epoch, schedule, nullptr, 0.0);
    EXPECT_EQ(runtime.pending().size(), 4 - epoch);
  }
  EXPECT_EQ(runtime.counters().redispatched, 3u);
  EXPECT_TRUE(runtime.exhausted());
  // Every job ended up assigned to one of the two survivors.
  for (JobId j = 0; j < 9; ++j) {
    const MachineId machine = schedule.machine_of(j);
    ASSERT_NE(machine, kUnassigned);
    EXPECT_TRUE(schedule.is_live(machine));
  }
}

TEST(ChurnRuntime, DrainMigratesResidentsWithoutOrphaning) {
  const Instance inst = gen::identical_uniform(3, 9, 1.0, 2.0, 3);
  Schedule schedule(inst, Assignment::round_robin(9, 3));
  ChurnPlan plan;
  plan.events = {{1, ChurnKind::kDrain, 0}};
  ChurnRuntime runtime(&plan, 3);
  runtime.apply_initial(schedule, nullptr);
  const std::uint64_t migrations_before = schedule.migrations();
  runtime.begin_epoch(1, schedule, nullptr, 0.0);
  EXPECT_FALSE(schedule.is_live(0));
  EXPECT_TRUE(schedule.jobs_on(0).empty());
  EXPECT_TRUE(runtime.pending().empty());
  EXPECT_EQ(runtime.counters().drains, 1u);
  EXPECT_EQ(runtime.counters().orphaned, 0u);
  // The three residents really moved (counted as network migrations).
  EXPECT_EQ(schedule.migrations() - migrations_before, 3u);
}

TEST(ChurnRuntime, DrainTargetsAMachineJoinedInTheSameEpoch) {
  // Regression: the drain target scan must see joins applied earlier in
  // the same epoch batch, not the previous epoch's stale live list.
  const Instance inst = gen::identical_uniform(2, 6, 1.0, 2.0, 5);
  Schedule schedule(inst, Assignment::all_on(6, 1));
  ChurnPlan plan;
  plan.events = {{1, ChurnKind::kCrash, 0},
                 {3, ChurnKind::kJoin, 0},
                 {3, ChurnKind::kDrain, 1}};
  ChurnRuntime runtime(&plan, 2);
  runtime.apply_initial(schedule, nullptr);
  runtime.begin_epoch(1, schedule, nullptr, 0.0);
  runtime.begin_epoch(2, schedule, nullptr, 0.0);
  runtime.begin_epoch(3, schedule, nullptr, 0.0);
  EXPECT_TRUE(schedule.is_live(0));
  EXPECT_FALSE(schedule.is_live(1));
  // All six jobs migrated from the drained machine onto the fresh join.
  EXPECT_EQ(schedule.jobs_on(0).size(), 6u);
  EXPECT_TRUE(schedule.check_consistency());
}

// ----- engine integration -----

RunResult run_seq(Schedule& schedule, const ChurnPlan* plan,
                  std::uint64_t seed, std::size_t max_exchanges) {
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  EngineOptions options;
  options.max_exchanges = max_exchanges;
  options.churn = plan;
  stats::Rng rng(seed);
  return ExchangeEngine(kernel, selector).run(schedule, options, rng);
}

TEST(ChurnEngine, TrivialPlanIsByteIdenticalToNoPlan) {
  const Instance inst = gen::identical_uniform(5, 30, 1.0, 10.0, 4);
  const ChurnPlan trivial_plan;  // no events

  Schedule bare(inst, gen::random_assignment(inst, 5));
  const RunResult without = run_seq(bare, nullptr, 6, 80);
  Schedule elastic(inst, gen::random_assignment(inst, 5));
  const RunResult with = run_seq(elastic, &trivial_plan, 6, 80);

  EXPECT_EQ(bare.fingerprint(), elastic.fingerprint());
  EXPECT_EQ(without.to_json().dump(), with.to_json().dump());
}

TEST(ChurnEngine, CrashNeverLosesOrDuplicatesAJob) {
  const Instance inst = gen::identical_uniform(4, 20, 1.0, 10.0, 7);
  ChurnPlan plan;
  plan.seed = 13;
  plan.events = {{2, ChurnKind::kCrash, 3}, {4, ChurnKind::kCrash, 0}};
  Schedule schedule(inst, gen::random_assignment(inst, 8));
  const RunResult result = run_seq(schedule, &plan, 9, 120);

  EXPECT_EQ(result.churn_crashes, 2u);
  EXPECT_EQ(result.churn_orphaned,
            result.churn_redispatched + result.churn_pending);
  std::size_t unassigned = 0;
  for (JobId j = 0; j < schedule.num_jobs(); ++j) {
    const MachineId machine = schedule.machine_of(j);
    if (machine == kUnassigned) {
      ++unassigned;
      continue;
    }
    EXPECT_TRUE(schedule.is_live(machine)) << "job " << j;
  }
  EXPECT_EQ(unassigned, result.churn_pending);
  EXPECT_TRUE(schedule.check_consistency());
}

TEST(ChurnEngine, JoinExtendsTheLiveSetMidRun) {
  const Instance inst = gen::identical_uniform(3, 18, 1.0, 10.0, 10);
  ChurnPlan plan;
  plan.events = {{3, ChurnKind::kJoin, 2}};
  Schedule schedule(inst, gen::random_assignment(inst, 11));
  const RunResult result = run_seq(schedule, &plan, 12, 90);
  EXPECT_EQ(result.churn_joins, 1u);
  // Machine 2 started dead (its first event is a join) and is live at the
  // end; the exchanges after epoch 3 can route work onto it.
  EXPECT_TRUE(schedule.is_live(2));
}

TEST(ChurnEngine, ParallelRunIsThreadCountInvariantUnderChurn) {
  const Instance inst = gen::identical_uniform(6, 36, 1.0, 10.0, 13);
  ChurnPlan plan;
  plan.seed = 21;
  plan.events = {{2, ChurnKind::kCrash, 5},
                 {3, ChurnKind::kDrain, 4},
                 {5, ChurnKind::kJoin, 5}};
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  const ParallelExchangeEngine engine(kernel, selector);

  ParallelEngineOptions options;
  options.max_exchanges = 120;
  options.churn = &plan;

  Schedule inline_run(inst, gen::random_assignment(inst, 14));
  const ParallelRunResult inline_result =
      engine.run(inline_run, options, 15);

  parallel::ThreadPool pool(8);
  options.pool = &pool;
  Schedule pooled_run(inst, gen::random_assignment(inst, 14));
  const ParallelRunResult pooled_result =
      engine.run(pooled_run, options, 15);

  EXPECT_EQ(inline_run.fingerprint(), pooled_run.fingerprint());
  EXPECT_EQ(inline_result.to_json().dump(), pooled_result.to_json().dump());
  EXPECT_EQ(inline_result.epochs, pooled_result.epochs);
  EXPECT_EQ(inline_result.conflicts, pooled_result.conflicts);
}

TEST(ChurnEngine, EngineValidatesThePlanUpFront) {
  const Instance inst = gen::identical_uniform(2, 8, 1.0, 2.0, 16);
  ChurnPlan plan;
  plan.events = {{1, ChurnKind::kCrash, 0}, {2, ChurnKind::kCrash, 1}};
  Schedule schedule(inst, gen::random_assignment(inst, 17));
  EXPECT_THROW((void)run_seq(schedule, &plan, 18, 10),
               std::invalid_argument);
}

}  // namespace
}  // namespace dlb::dist
