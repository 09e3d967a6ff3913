// The lockstep transport runner on the simulated backend: the session
// plan is a pure function of (seed, machines, rounds), repeated runs are
// bitwise identical, and a chaos fault plan perturbs frame timing without
// perturbing the converged assignment — the property the CI differential
// and chaos-smoke gates rely on. Crafted ACCEPT and TRANSFER frames with
// hostile payloads are dropped before they touch the replica.

#include "dist/transport_runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/generators.hpp"
#include "des/engine.hpp"
#include "dist/dlb2c.hpp"
#include "net/fault.hpp"
#include "net/frame.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "stats/rng.hpp"

namespace dlb::dist {
namespace {

struct SimResult {
  std::vector<std::vector<JobId>> jobs;
  std::vector<Cost> loads;
  TransportRunner::Counters counters;
};

SimResult run_sim(const Instance& instance, std::uint64_t seed,
                  std::size_t rounds, const net::FaultPlan* plan) {
  Schedule replica(instance, gen::random_assignment(instance, seed));
  des::Engine engine;
  net::ConstantLatency latency(0.01);
  stats::Rng rng = stats::Rng::stream(seed, 0x7E57);
  net::Network network(engine, latency, rng);
  if (plan != nullptr) network.set_fault_plan(plan);
  net::SimTransport transport(engine, network, instance.num_machines());

  const Dlb2cKernel kernel;
  TransportRunnerOptions options;
  options.kernel = &kernel;
  options.seed = seed;
  options.rounds = rounds;
  options.retry_timeout = 0.5;
  TransportRunner runner(replica, transport, options);
  runner.start();
  runner.run_to_completion();

  SimResult result;
  for (MachineId m = 0; m < instance.num_machines(); ++m) {
    result.jobs.push_back(runner.sorted_jobs(m));
    result.loads.push_back(runner.canonical_load(m));
  }
  result.counters = runner.counters();
  return result;
}

TEST(TransportRunnerPlan, PureAndWellFormed) {
  const std::uint64_t seed = 11;
  const std::size_t machines = 6;
  EXPECT_EQ(TransportRunner::total_sessions(machines, 4), 24u);
  EXPECT_EQ(TransportRunner::total_sessions(1, 4), 0u);
  for (std::uint64_t token = 0; token < 24; ++token) {
    const MachineId initiator =
        TransportRunner::initiator_of(seed, machines, token);
    const MachineId peer =
        TransportRunner::peer_of(seed, machines, token, initiator);
    ASSERT_LT(initiator, machines);
    ASSERT_LT(peer, machines);
    EXPECT_NE(initiator, peer) << "token " << token;
    // Pure: a second evaluation agrees.
    EXPECT_EQ(TransportRunner::initiator_of(seed, machines, token),
              initiator);
    EXPECT_EQ(TransportRunner::peer_of(seed, machines, token, initiator),
              peer);
  }
  // Each round visits every machine exactly once.
  const std::vector<MachineId> order =
      TransportRunner::round_order(seed, machines, 2);
  std::vector<int> seen(machines, 0);
  for (const MachineId m : order) ++seen[m];
  EXPECT_EQ(seen, std::vector<int>(machines, 1));
}

TEST(TransportRunner, RepeatedRunsBitwiseIdentical) {
  const Instance instance =
      gen::two_cluster_uniform(3, 3, 48, 1.0, 100.0, 5);
  const SimResult a = run_sim(instance, 9, 4, nullptr);
  const SimResult b = run_sim(instance, 9, 4, nullptr);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.counters.exchanges, b.counters.exchanges);
  EXPECT_EQ(a.counters.migrations, b.counters.migrations);
}

TEST(TransportRunner, CompletesEveryPlannedSession) {
  const Instance instance =
      gen::two_cluster_uniform(2, 2, 24, 1.0, 50.0, 2);
  const SimResult result = run_sim(instance, 3, 5, nullptr);
  EXPECT_EQ(result.counters.sessions_initiated, 20u);
  EXPECT_EQ(result.counters.sessions_completed, 20u);
  // Conservation: every job placed exactly once.
  std::vector<int> placed(24, 0);
  for (const auto& row : result.jobs) {
    for (const JobId job : row) ++placed[job];
  }
  EXPECT_EQ(placed, std::vector<int>(24, 1));
}

TEST(TransportRunner, ChaosPerturbsTimingNotOutcome) {
  const Instance instance =
      gen::two_cluster_uniform(3, 3, 60, 1.0, 200.0, 8);
  const SimResult clean = run_sim(instance, 21, 5, nullptr);

  for (const std::uint64_t fault_seed : {101u, 202u, 303u}) {
    net::FaultPlan plan =
        net::fault_plan_by_name("chaos", 0.25, fault_seed);
    const SimResult chaotic = run_sim(instance, 21, 5, &plan);
    EXPECT_EQ(chaotic.jobs, clean.jobs) << "fault seed " << fault_seed;
    EXPECT_EQ(chaotic.loads, clean.loads) << "fault seed " << fault_seed;
    EXPECT_EQ(chaotic.counters.exchanges, clean.counters.exchanges);
    EXPECT_EQ(chaotic.counters.migrations, clean.counters.migrations);
    // The chaos run must not double-commit: each exchange applies once,
    // however many TRANSFER retransmissions the drops forced.
    EXPECT_LE(chaotic.counters.exchanges,
              chaotic.counters.transfers_sent);
  }
}

TEST(TransportRunner, DeadPeerSessionsSkipMovelessly) {
  const Instance instance =
      gen::two_cluster_uniform(2, 2, 24, 1.0, 50.0, 4);
  Schedule replica(instance, gen::random_assignment(instance, 6));
  des::Engine engine;
  net::ConstantLatency latency(0.01);
  stats::Rng rng = stats::Rng::stream(6, 0x7E57);
  net::Network network(engine, latency, rng);
  net::SimTransport transport(engine, network, instance.num_machines());

  const Dlb2cKernel kernel;
  TransportRunnerOptions options;
  options.kernel = &kernel;
  options.seed = 6;
  options.rounds = 3;
  TransportRunner runner(replica, transport, options);
  const std::vector<JobId> dead_row_before = runner.sorted_jobs(3);
  runner.mark_dead(3);
  runner.start();
  runner.run_to_completion();

  EXPECT_TRUE(runner.done());
  // The dead machine neither gained nor lost jobs, and no job was lost
  // overall — its orphans await adoption, exactly what the churn
  // re-dispatch path consumes.
  EXPECT_EQ(runner.sorted_jobs(3), dead_row_before);
  std::vector<int> placed(24, 0);
  for (MachineId m = 0; m < 4; ++m) {
    for (const JobId job : runner.sorted_jobs(m)) ++placed[job];
  }
  EXPECT_EQ(placed, std::vector<int>(24, 1));

  // Adoption moves the orphans onto a live machine.
  runner.adopt(dead_row_before, 0);
  EXPECT_TRUE(runner.sorted_jobs(3).empty());
}

// ----- hostile payloads ------------------------------------------------

/// Hosts some machines of a deployment and hands every sent frame to the
/// test, which plays the remote machines by delivering frames by hand.
/// Timers never fire, so no retransmission blurs what a frame caused.
class ScriptedTransport final : public net::Transport {
 public:
  ScriptedTransport(std::size_t machines, std::vector<MachineId> local)
      : machines_(machines), local_(std::move(local)) {}

  void set_handler(FrameHandler handler) override {
    handler_ = std::move(handler);
  }
  void connect() override {}
  void send(const net::Frame& frame) override { sent.push_back(frame); }
  void schedule_after(double, TimerCallback) override {}
  [[nodiscard]] const net::Clock& clock() const override { return clock_; }
  [[nodiscard]] const std::vector<MachineId>& local_machines()
      const override {
    return local_;
  }
  [[nodiscard]] std::size_t num_machines() const override {
    return machines_;
  }
  [[nodiscard]] bool reachable(MachineId) const override { return true; }
  std::size_t poll(double) override { return 0; }

  void deliver(const net::Frame& frame) { handler_(frame); }

  std::vector<net::Frame> sent;

 private:
  class FrozenClock final : public net::Clock {
   public:
    [[nodiscard]] double now() const override { return 0.0; }
    [[nodiscard]] bool is_realtime() const noexcept override {
      return false;
    }
  };

  std::size_t machines_;
  std::vector<MachineId> local_;
  FrozenClock clock_;
  FrameHandler handler_;
};

constexpr std::uint64_t kHostileSeed = 6;
constexpr std::size_t kHostileMachines = 4;

/// Session 0 of a 4-machine plan with the runner hosting one end of it.
struct OneEnd {
  explicit OneEnd(bool host_initiator)
      : instance(gen::two_cluster_uniform(2, 2, 24, 1.0, 50.0, 4)),
        replica(instance, gen::random_assignment(instance, kHostileSeed)),
        initiator(TransportRunner::initiator_of(kHostileSeed,
                                                kHostileMachines, 0)),
        peer(TransportRunner::peer_of(kHostileSeed, kHostileMachines, 0,
                                      initiator)),
        transport(kHostileMachines, {host_initiator ? initiator : peer}),
        runner(replica, transport, options()) {
    initiator_row = runner.sorted_jobs(initiator);
    peer_row = runner.sorted_jobs(peer);
  }

  TransportRunnerOptions options() {
    TransportRunnerOptions result;
    result.kernel = &kernel;
    result.seed = kHostileSeed;
    result.rounds = 2;
    result.obs = &context;
    return result;
  }

  /// A frame of session 0 from the remote end to the hosted one.
  net::Frame inbound(net::FrameType type, MachineId from, MachineId to,
                     std::vector<std::uint8_t> payload = {}) const {
    net::Frame frame;
    frame.type = type;
    frame.from = from;
    frame.to = to;
    frame.token = 0;
    frame.payload = std::move(payload);
    return frame;
  }

  std::uint64_t bad_payloads() const {
    EXPECT_EQ(metrics.counter("dist.transport.bad_payloads").value(),
              runner.counters().bad_payloads);
    return runner.counters().bad_payloads;
  }

  const Dlb2cKernel kernel;
  mutable obs::Metrics metrics;
  obs::Context context{&metrics, nullptr, nullptr};
  Instance instance;
  Schedule replica;
  MachineId initiator;
  MachineId peer;
  ScriptedTransport transport;
  TransportRunner runner;
  std::vector<JobId> initiator_row;
  std::vector<JobId> peer_row;
};

using PayloadOf = std::function<std::vector<std::uint8_t>(const OneEnd&)>;

/// The runner initiates session 0; a crafted ACCEPT must be dropped
/// without a reply or a replica change, and the genuine ACCEPT must still
/// run the session.
void expect_accept_dropped(const PayloadOf& payload_of) {
  OneEnd end(/*host_initiator=*/true);
  ASSERT_GE(end.peer_row.size(), 2u);
  end.runner.start();
  ASSERT_EQ(end.transport.sent.size(), 1u);
  ASSERT_EQ(end.transport.sent[0].type, net::FrameType::kRequest);
  const std::uint64_t fingerprint = end.replica.fingerprint();

  end.transport.deliver(end.inbound(net::FrameType::kAccept, end.peer,
                                    end.initiator, payload_of(end)));
  EXPECT_EQ(end.transport.sent.size(), 1u) << "crafted ACCEPT was used";
  EXPECT_EQ(end.replica.fingerprint(), fingerprint);
  EXPECT_EQ(end.bad_payloads(), 1u);

  end.transport.deliver(end.inbound(net::FrameType::kAccept, end.peer,
                                    end.initiator,
                                    net::encode_jobs(end.peer_row)));
  EXPECT_EQ(end.transport.sent.size(), 2u);
  EXPECT_EQ(end.bad_payloads(), 1u);
}

/// The runner answers session 0 as its peer; a crafted TRANSFER must be
/// dropped without a DONE or a replica change, and the genuine TRANSFER
/// must still apply.
void expect_transfer_dropped(const PayloadOf& payload_of) {
  OneEnd end(/*host_initiator=*/false);
  ASSERT_GE(end.initiator_row.size(), 2u);
  ASSERT_GE(end.peer_row.size(), 1u);
  end.runner.start();
  end.transport.deliver(
      end.inbound(net::FrameType::kRequest, end.initiator, end.peer));
  ASSERT_EQ(end.transport.sent.size(), 1u);
  ASSERT_EQ(end.transport.sent[0].type, net::FrameType::kAccept);
  const std::uint64_t fingerprint = end.replica.fingerprint();

  end.transport.deliver(end.inbound(net::FrameType::kTransfer, end.initiator,
                                    end.peer, payload_of(end)));
  EXPECT_EQ(end.transport.sent.size(), 1u) << "crafted TRANSFER was used";
  EXPECT_EQ(end.replica.fingerprint(), fingerprint);
  EXPECT_EQ(end.bad_payloads(), 1u);

  net::TransferMoves moves;
  moves.to_initiator = {end.peer_row[0]};
  moves.to_peer = {end.initiator_row[0]};
  end.transport.deliver(end.inbound(net::FrameType::kTransfer, end.initiator,
                                    end.peer, net::encode_moves(moves)));
  ASSERT_EQ(end.transport.sent.size(), 2u);
  EXPECT_EQ(end.transport.sent[1].type, net::FrameType::kDone);
  EXPECT_EQ(end.replica.machine_of(end.peer_row[0]), end.initiator);
  EXPECT_EQ(end.replica.machine_of(end.initiator_row[0]), end.peer);
  EXPECT_EQ(end.bad_payloads(), 1u);
}

std::vector<std::uint8_t> moves_payload(std::vector<JobId> to_initiator,
                                        std::vector<JobId> to_peer) {
  net::TransferMoves moves;
  moves.to_initiator = std::move(to_initiator);
  moves.to_peer = std::move(to_peer);
  return net::encode_moves(moves);
}

TEST(TransportRunnerHostile, AcceptWithOutOfRangeJobIsDropped) {
  expect_accept_dropped([](const OneEnd& end) {
    std::vector<JobId> jobs = end.peer_row;
    jobs.push_back(static_cast<JobId>(end.instance.num_jobs()));
    return net::encode_jobs(jobs);
  });
}

TEST(TransportRunnerHostile, AcceptWithUnsortedJobsIsDropped) {
  expect_accept_dropped([](const OneEnd& end) {
    return net::encode_jobs({end.peer_row.rbegin(), end.peer_row.rend()});
  });
}

TEST(TransportRunnerHostile, AcceptWithDuplicateJobIsDropped) {
  expect_accept_dropped([](const OneEnd& end) {
    std::vector<JobId> jobs = end.peer_row;
    jobs.insert(jobs.begin(), jobs.front());
    return net::encode_jobs(jobs);
  });
}

TEST(TransportRunnerHostile, TruncatedAcceptIsDropped) {
  expect_accept_dropped([](const OneEnd& end) {
    std::vector<std::uint8_t> payload = net::encode_jobs(end.peer_row);
    payload.resize(payload.size() - 2);
    return payload;
  });
}

TEST(TransportRunnerHostile, TransferWithOutOfRangeJobIsDropped) {
  expect_transfer_dropped([](const OneEnd& end) {
    return moves_payload({}, {static_cast<JobId>(end.instance.num_jobs())});
  });
}

TEST(TransportRunnerHostile, TransferWithUnsortedJobsIsDropped) {
  expect_transfer_dropped([](const OneEnd& end) {
    return moves_payload({}, {end.initiator_row[1], end.initiator_row[0]});
  });
}

TEST(TransportRunnerHostile, TransferWithDuplicateJobIsDropped) {
  expect_transfer_dropped([](const OneEnd& end) {
    return moves_payload({}, {end.initiator_row[0], end.initiator_row[0]});
  });
}

TEST(TransportRunnerHostile, TruncatedTransferIsDropped) {
  expect_transfer_dropped([](const OneEnd& end) {
    std::vector<std::uint8_t> payload =
        moves_payload({end.peer_row[0]}, {end.initiator_row[0]});
    payload.pop_back();
    return payload;
  });
}

TEST(TransportRunnerHostile, TransferWithOverlappingListsIsDropped) {
  expect_transfer_dropped([](const OneEnd& end) {
    return moves_payload({end.peer_row[0]}, {end.peer_row[0]});
  });
}

TEST(TransportRunnerHostile, TransferTakingJobsOffAnotherMachineIsDropped) {
  // to_initiator may only name jobs on the receiver's own row.
  expect_transfer_dropped([](const OneEnd& end) {
    return moves_payload({end.initiator_row[0]}, {});
  });
}

}  // namespace
}  // namespace dlb::dist
