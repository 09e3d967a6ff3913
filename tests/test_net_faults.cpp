#include "net/fault.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/generators.hpp"
#include "core/validation.hpp"
#include "dist/async_runner.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "pairwise/basic_greedy.hpp"

namespace dlb::net {
namespace {

TEST(FaultPlan, NamedConstructorsSetOneProbability) {
  EXPECT_DOUBLE_EQ(FaultPlan::drops(0.2, 1).drop_probability, 0.2);
  EXPECT_DOUBLE_EQ(FaultPlan::delays(0.3, 1).delay_probability, 0.3);
  EXPECT_DOUBLE_EQ(FaultPlan::duplicates(0.4, 1).duplicate_probability, 0.4);
  EXPECT_DOUBLE_EQ(FaultPlan::reorders(0.5, 1).reorder_probability, 0.5);
  const FaultPlan chaos = FaultPlan::chaos(0.1, 1);
  EXPECT_DOUBLE_EQ(chaos.drop_probability, 0.1);
  EXPECT_DOUBLE_EQ(chaos.delay_probability, 0.1);
  EXPECT_DOUBLE_EQ(chaos.duplicate_probability, 0.1);
  EXPECT_DOUBLE_EQ(chaos.reorder_probability, 0.1);
  EXPECT_FALSE(chaos.trivial());
  EXPECT_TRUE(FaultPlan{}.trivial());
}

TEST(FaultPlan, ByNameCoversEveryPlanAndRejectsUnknown) {
  EXPECT_TRUE(fault_plan_by_name("none", 0.5, 1).trivial());
  EXPECT_GT(fault_plan_by_name("drop", 0.5, 1).drop_probability, 0.0);
  EXPECT_GT(fault_plan_by_name("delay", 0.5, 1).delay_probability, 0.0);
  EXPECT_GT(fault_plan_by_name("duplicate", 0.5, 1).duplicate_probability,
            0.0);
  EXPECT_GT(fault_plan_by_name("reorder", 0.5, 1).reorder_probability, 0.0);
  EXPECT_FALSE(fault_plan_by_name("chaos", 0.5, 1).trivial());
  EXPECT_THROW((void)fault_plan_by_name("gremlins", 0.5, 1),
               std::invalid_argument);
}

struct NetworkFixture {
  des::Engine engine;
  ConstantLatency latency{1.0};
  stats::Rng rng{7};
  Network network{engine, latency, rng};
  std::vector<int> delivered;

  void send_tagged(int tag) {
    network.send(0, 1, [this, tag] { delivered.push_back(tag); });
  }
};

TEST(Network, DropFaultSuppressesDelivery) {
  NetworkFixture f;
  const FaultPlan plan = FaultPlan::drops(1.0, 3);
  f.network.set_fault_plan(&plan);
  for (int tag = 0; tag < 5; ++tag) f.send_tagged(tag);
  f.engine.run();
  EXPECT_TRUE(f.delivered.empty());
  EXPECT_EQ(f.network.fault_stats().dropped, 5u);
  EXPECT_EQ(f.network.messages_sent(), 5u);
}

TEST(Network, DuplicateFaultDeliversTwice) {
  NetworkFixture f;
  const FaultPlan plan = FaultPlan::duplicates(1.0, 3);
  f.network.set_fault_plan(&plan);
  f.send_tagged(42);
  f.engine.run();
  EXPECT_EQ(f.delivered, (std::vector<int>{42, 42}));
  EXPECT_EQ(f.network.fault_stats().duplicated, 1u);
}

TEST(Network, ReorderFaultDeliversBehindALaterSend) {
  NetworkFixture f;
  // Seed 2 at p=0.5: the first message draws a reorder, the second does
  // not — so the second send releases the first behind itself.
  const FaultPlan plan = FaultPlan::reorders(0.5, 2);
  f.network.set_fault_plan(&plan);
  f.send_tagged(1);  // Held back.
  EXPECT_EQ(f.network.held_messages(), 1u);
  f.send_tagged(2);  // Releases the held message behind itself.
  f.engine.run();
  EXPECT_EQ(f.delivered, (std::vector<int>{2, 1}));
  EXPECT_EQ(f.network.fault_stats().reordered, 1u);
  EXPECT_EQ(f.network.held_messages(), 0u);
}

TEST(Network, HeldMessagesWithoutALaterSendNeverDeliver) {
  // The documented edge: a reordered message with no follow-up send stays
  // held — the DES horizon, not the network, bounds the protocol.
  NetworkFixture f;
  const FaultPlan plan = FaultPlan::reorders(1.0, 3);
  f.network.set_fault_plan(&plan);
  f.send_tagged(1);
  f.send_tagged(2);  // Also reordered at p=1: held too, releases nothing.
  f.engine.run();
  EXPECT_TRUE(f.delivered.empty());
  EXPECT_EQ(f.network.held_messages(), 2u);
}

TEST(Network, DelayFaultAddsLatencyWithinBounds) {
  NetworkFixture f;
  FaultPlan plan = FaultPlan::delays(1.0, 3);
  plan.delay_lo = 2.0;
  plan.delay_hi = 3.0;
  f.network.set_fault_plan(&plan);
  double delivered_at = -1.0;
  f.network.send(0, 1, [&] { delivered_at = f.engine.now(); });
  f.engine.run();
  // Base latency 1.0 plus a delay in [2, 3).
  EXPECT_GE(delivered_at, 3.0);
  EXPECT_LT(delivered_at, 4.0);
  EXPECT_EQ(f.network.fault_stats().delayed, 1u);
}

TEST(Network, FaultDecisionsAreSeedDeterministic) {
  const auto run_once = [](std::uint64_t seed) {
    NetworkFixture f;
    const FaultPlan plan = FaultPlan::chaos(0.5, seed);
    f.network.set_fault_plan(&plan);
    for (int tag = 0; tag < 40; ++tag) f.send_tagged(tag);
    f.engine.run();
    return f.delivered;
  };
  EXPECT_EQ(run_once(11), run_once(11));
  EXPECT_NE(run_once(11), run_once(12));
}

TEST(Network, ObsCountersMirrorFaultStats) {
  obs::Metrics metrics;
  obs::Context context{&metrics, nullptr};
  NetworkFixture f;
  const FaultPlan plan = FaultPlan::chaos(0.5, 5);
  f.network.set_fault_plan(&plan);
  f.network.attach_obs(&context);
  for (int tag = 0; tag < 60; ++tag) f.send_tagged(tag);
  f.engine.run();
  const FaultStats& stats = f.network.fault_stats();
  EXPECT_GT(stats.total(), 0u);
  EXPECT_EQ(metrics.counter("net.faults.dropped").value(), stats.dropped);
  EXPECT_EQ(metrics.counter("net.faults.delayed").value(), stats.delayed);
  EXPECT_EQ(metrics.counter("net.faults.duplicated").value(),
            stats.duplicated);
  EXPECT_EQ(metrics.counter("net.faults.reordered").value(),
            stats.reordered);
}

TEST(Network, NoPlanMeansNoFaultMetricKeys) {
  // The lazy registration keeps fault-free metric snapshots identical to
  // the pre-fault-injection ones (the bench baseline depends on that).
  obs::Metrics metrics;
  obs::Context context{&metrics, nullptr};
  NetworkFixture f;
  f.network.attach_obs(&context);
  f.send_tagged(1);
  f.engine.run();
  for (const auto& entry : metrics.counter_values()) {
    EXPECT_EQ(entry.first.rfind("net.faults.", 0), std::string::npos)
        << entry.first;
  }
}

// ----- protocol-level fault tolerance -----

dist::AsyncRunResult run_protocol(const FaultPlan* plan,
                                  std::optional<des::SimTime> timeout,
                                  Schedule& schedule) {
  const pairwise::BasicGreedyKernel kernel;
  dist::AsyncOptions options;
  options.duration = 60.0;
  options.seed = 99;
  options.fault_plan = plan;
  options.session_timeout = timeout;
  return dist::run_async(schedule, kernel, options);
}

TEST(AsyncFaults, EveryPlanTerminatesAndConservesJobs) {
  const Instance inst = gen::identical_uniform(5, 20, 1.0, 10.0, 31);
  for (const char* name : {"drop", "delay", "duplicate", "reorder",
                           "chaos"}) {
    const FaultPlan plan = fault_plan_by_name(name, 0.3, 17);
    Schedule schedule(inst, gen::random_assignment(inst, 32));
    const dist::AsyncRunResult result =
        run_protocol(&plan, 3.0, schedule);
    EXPECT_LE(result.end_time, 60.0 + 1e-9) << name;
    std::string why;
    EXPECT_TRUE(is_complete_partition(schedule, &why)) << name << ": "
                                                       << why;
    EXPECT_TRUE(schedule.check_consistency()) << name;
  }
}

TEST(AsyncFaults, DropsWithoutTimeoutStillConserveJobs) {
  // Without timers a dropped message parks its session until the horizon;
  // the run must still end with every job placed exactly once.
  const Instance inst = gen::identical_uniform(4, 12, 1.0, 10.0, 33);
  const FaultPlan plan = FaultPlan::drops(0.5, 21);
  Schedule schedule(inst, gen::random_assignment(inst, 34));
  const dist::AsyncRunResult result =
      run_protocol(&plan, std::nullopt, schedule);
  EXPECT_GT(result.faults.dropped, 0u);
  std::string why;
  EXPECT_TRUE(is_complete_partition(schedule, &why)) << why;
}

TEST(AsyncFaults, TimeoutRecoversDroppedSessions) {
  const Instance inst = gen::identical_uniform(6, 30, 1.0, 10.0, 35);
  const FaultPlan plan = FaultPlan::drops(0.4, 23);
  Schedule schedule(inst, Assignment::all_on(30, 0));
  const Cost initial = schedule.makespan();
  const dist::AsyncRunResult result = run_protocol(&plan, 3.0, schedule);
  EXPECT_GT(result.sessions_timed_out, 0u);
  // Recovery keeps balancing going: the schedule still improves.
  EXPECT_LT(result.final_makespan, initial);
}

TEST(AsyncFaults, DuplicatesAndReordersAreRecognisedAsStale) {
  const Instance inst = gen::identical_uniform(5, 25, 1.0, 10.0, 37);
  const FaultPlan plan = FaultPlan::chaos(0.4, 29);
  Schedule schedule(inst, gen::random_assignment(inst, 38));
  const dist::AsyncRunResult result = run_protocol(&plan, 3.0, schedule);
  EXPECT_GT(result.faults.duplicated + result.faults.reordered, 0u);
  EXPECT_GT(result.stale_messages, 0u);
  std::string why;
  EXPECT_TRUE(is_complete_partition(schedule, &why)) << why;
}

TEST(AsyncFaults, ReorderedDuplicatesNeverReachTheAcceptPathTwice) {
  // Every message is duplicated AND may be reordered behind a later send,
  // while the 3.0s session timeout keeps retiring sessions whose replies
  // went missing in the shuffle. The accept path must see each logical
  // message at most once: every spurious copy lands in the stale counter,
  // and a committed exchange still needs at least one TRANSFER instant,
  // so exchanges can never exceed the TRANSFER count.
  const Instance inst = gen::identical_uniform(6, 30, 1.0, 10.0, 45);
  FaultPlan plan = FaultPlan::reorders(0.5, 47);
  plan.duplicate_probability = 1.0;

  obs::Metrics metrics;
  obs::Tracer tracer;
  const obs::Context obs{&metrics, &tracer};
  const pairwise::BasicGreedyKernel kernel;
  dist::AsyncOptions options;
  options.duration = 60.0;
  options.seed = 99;
  options.fault_plan = &plan;
  options.session_timeout = 3.0;
  options.obs = &obs;

  Schedule schedule(inst, gen::random_assignment(inst, 46));
  const dist::AsyncRunResult result = dist::run_async(schedule, kernel,
                                                      options);

  // Each message went out twice, so at least one copy per completed
  // session arrived after its session moved on.
  EXPECT_EQ(result.faults.duplicated, result.messages);
  EXPECT_GT(result.stale_messages, 0u);

  // The struct tally and the metrics registry must agree on staleness.
  bool found_stale_counter = false;
  for (const auto& [name, value] : metrics.counter_values()) {
    if (name != "async.stale_messages") continue;
    found_stale_counter = true;
    EXPECT_EQ(value, result.stale_messages);
  }
  EXPECT_TRUE(found_stale_counter);

  std::uint64_t transfers = 0;
  for (const auto& event : tracer.events()) {
    if (event.name == "TRANSFER") ++transfers;
  }
  EXPECT_GT(transfers, 0u);
  EXPECT_LE(result.exchanges, transfers);

  std::string why;
  EXPECT_TRUE(is_complete_partition(schedule, &why)) << why;
  EXPECT_TRUE(schedule.check_consistency());
}

TEST(AsyncFaults, FaultyRunsReplayDeterministically) {
  const Instance inst = gen::identical_uniform(5, 20, 1.0, 10.0, 39);
  const FaultPlan plan = FaultPlan::chaos(0.3, 41);
  Schedule first(inst, gen::random_assignment(inst, 40));
  Schedule second(inst, gen::random_assignment(inst, 40));
  const dist::AsyncRunResult r1 = run_protocol(&plan, 3.0, first);
  const dist::AsyncRunResult r2 = run_protocol(&plan, 3.0, second);
  EXPECT_EQ(first.assignment(), second.assignment());
  EXPECT_EQ(r1.messages, r2.messages);
  EXPECT_EQ(r1.exchanges, r2.exchanges);
  EXPECT_EQ(r1.faults.total(), r2.faults.total());
}

TEST(AsyncFaults, ReliableRunUnchangedByTheFaultMachinery) {
  // fault_plan = nullptr must reproduce the exact pre-fault behaviour:
  // same schedule, same message count, no fault or stale accounting.
  const Instance inst = gen::identical_uniform(5, 20, 1.0, 10.0, 43);
  Schedule schedule(inst, gen::random_assignment(inst, 44));
  const dist::AsyncRunResult result =
      run_protocol(nullptr, std::nullopt, schedule);
  EXPECT_EQ(result.faults.total(), 0u);
  EXPECT_EQ(result.stale_messages, 0u);
  EXPECT_EQ(result.sessions_timed_out, 0u);
}

}  // namespace
}  // namespace dlb::net
