#include "dist/async_runner.hpp"

#include <gtest/gtest.h>

#include "core/generators.hpp"
#include "core/lower_bounds.hpp"
#include "core/validation.hpp"
#include "dist/dlb2c.hpp"
#include "net/network.hpp"
#include "pairwise/basic_greedy.hpp"

namespace dlb::dist {
namespace {

TEST(Network, DeliversAfterLatencyAndCounts) {
  des::Engine engine;
  stats::Rng rng(1);
  const net::ConstantLatency latency(2.5);
  net::Network network(engine, latency, rng);
  double delivered_at = -1.0;
  network.send(0, 1, [&] { delivered_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(delivered_at, 2.5);
  EXPECT_EQ(network.messages_sent(), 1u);
}

TEST(AsyncRunner, ImprovesThePiledDistribution) {
  const Instance inst = gen::two_cluster_uniform(6, 3, 90, 1.0, 100.0, 3);
  Schedule s(inst, Assignment::all_on(90, 0));
  const Dlb2cKernel kernel;
  AsyncOptions options;
  options.duration = 60.0;
  options.seed = 4;
  const AsyncRunResult result = run_async(s, kernel, options);
  EXPECT_TRUE(is_complete_partition(s));
  EXPECT_LT(result.final_makespan, result.initial_makespan / 2.0);
  EXPECT_GT(result.exchanges, 0u);
  EXPECT_GT(result.messages, result.exchanges);
}

TEST(AsyncRunner, DeterministicGivenSeed) {
  const Instance inst = gen::two_cluster_uniform(4, 2, 48, 1.0, 50.0, 5);
  const Dlb2cKernel kernel;
  AsyncOptions options;
  options.duration = 30.0;
  options.seed = 6;

  Schedule s1(inst, gen::random_assignment(inst, 7));
  Schedule s2(inst, gen::random_assignment(inst, 7));
  const AsyncRunResult r1 = run_async(s1, kernel, options);
  const AsyncRunResult r2 = run_async(s2, kernel, options);
  EXPECT_EQ(s1.assignment(), s2.assignment());
  EXPECT_EQ(r1.exchanges, r2.exchanges);
  EXPECT_EQ(r1.messages, r2.messages);
  EXPECT_DOUBLE_EQ(r1.final_makespan, r2.final_makespan);
}

TEST(AsyncRunner, HigherLatencyCompletesFewerSessions) {
  const Instance inst = gen::two_cluster_uniform(4, 2, 48, 1.0, 50.0, 8);
  const Dlb2cKernel kernel;

  AsyncOptions fast;
  fast.duration = 50.0;
  fast.message_latency = 0.01;
  fast.seed = 9;
  Schedule s_fast(inst, gen::random_assignment(inst, 10));
  const AsyncRunResult r_fast = run_async(s_fast, kernel, fast);

  AsyncOptions slow = fast;
  slow.message_latency = 2.0;
  Schedule s_slow(inst, gen::random_assignment(inst, 10));
  const AsyncRunResult r_slow = run_async(s_slow, kernel, slow);

  EXPECT_GT(r_fast.exchanges, r_slow.exchanges);
}

TEST(AsyncRunner, TraceIsTimeOrderedWithinHorizon) {
  const Instance inst = gen::two_cluster_uniform(3, 3, 36, 1.0, 50.0, 11);
  Schedule s(inst, gen::random_assignment(inst, 12));
  const Dlb2cKernel kernel;
  AsyncOptions options;
  options.duration = 20.0;
  options.record_trace = true;
  options.seed = 13;
  const AsyncRunResult result = run_async(s, kernel, options);
  ASSERT_FALSE(result.trace.empty());
  for (std::size_t k = 1; k < result.trace.size(); ++k) {
    EXPECT_GE(result.trace[k].time, result.trace[k - 1].time);
  }
  EXPECT_LE(result.trace.back().time, options.duration + 1e-9);
}

TEST(AsyncRunner, LocksPreventLostUpdates) {
  // Consistency under concurrency: after any run the schedule's incremental
  // state must match a from-scratch recomputation.
  const Instance inst = gen::two_cluster_uniform(5, 5, 100, 1.0, 100.0, 14);
  Schedule s(inst, gen::random_assignment(inst, 15));
  const Dlb2cKernel kernel;
  AsyncOptions options;
  options.duration = 40.0;
  options.seed = 16;
  run_async(s, kernel, options);
  EXPECT_TRUE(s.check_consistency());
}

TEST(AsyncRunner, RejectsBadOptions) {
  const Instance inst = gen::two_cluster_uniform(1, 1, 4, 1.0, 5.0, 17);
  Schedule s(inst, gen::random_assignment(inst, 18));
  const Dlb2cKernel kernel;
  AsyncOptions options;
  options.mean_think_time = 0.0;
  EXPECT_THROW(run_async(s, kernel, options), std::invalid_argument);

  const Instance one = Instance::identical(1, {1.0});
  Schedule s_one(one, Assignment::all_on(1, 0));
  const pairwise::BasicGreedyKernel greedy;
  AsyncOptions ok;
  EXPECT_THROW(run_async(s_one, greedy, ok), std::invalid_argument);
}

TEST(AsyncRunner, SessionsPerMachineNormalization) {
  AsyncRunResult result;
  result.exchanges = 60;
  EXPECT_DOUBLE_EQ(result.exchanges_per_machine(12), 5.0);
}

}  // namespace
}  // namespace dlb::dist
