// The socket backend exercised hermetically: two SocketTransports in one
// process speak real Unix-domain / TCP streams, run the lockstep
// protocol, and must converge to the bitwise-identical assignment the
// simulated backend produces — with and without the chaos proxy. Three
// hosts and a golden digest pin the outcome of the remote paths (ACCEPT
// resync, remote TRANSFER apply) that the simulated backend, with every
// machine in one runner, never takes.
//
// Connect ordering makes this single-threaded: hosts connect from the
// highest rank down, so each host's dials land in listener backlogs that
// are already open, and its connect() returns once the higher-ranked
// hosts' queued HELLOs are promoted.

#include "net/socket_transport.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/generators.hpp"
#include "des/engine.hpp"
#include "dist/dlb2c.hpp"
#include "dist/transport_runner.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "stats/rng.hpp"

namespace dlb::net {
namespace {

std::uint16_t free_tcp_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// `count` hosts splitting the machines into contiguous near-equal
/// ranges (host h owns [machines·h/count, machines·(h+1)/count)).
std::vector<HostSpec> make_hosts(bool use_unix, const std::string& tag,
                                 std::size_t machines, std::size_t count) {
  std::vector<HostSpec> hosts(count);
  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string unique = tag + "_" + std::to_string(::getpid());
  for (std::size_t h = 0; h < count; ++h) {
    if (use_unix) {
      hosts[h].address = "unix:" + dir + "/dlb_test_" + unique + "_" +
                         static_cast<char>('a' + h) + ".sock";
    } else {
      hosts[h].address =
          "tcp:127.0.0.1:" + std::to_string(free_tcp_port());
    }
    hosts[h].machine_lo = static_cast<MachineId>(machines * h / count);
    hosts[h].machine_hi =
        static_cast<MachineId>(machines * (h + 1) / count);
  }
  return hosts;
}

/// A run's outcome: every machine's authoritative row and canonical load,
/// and the exchange and migration totals.
struct Outcome {
  std::vector<std::vector<JobId>> jobs;
  std::vector<Cost> loads;
  std::uint64_t exchanges = 0;
  std::uint64_t migrations = 0;
};

/// FNV-1a over the outcome: rows (length, then ids), load bit patterns,
/// then the exchange and migration totals.
std::uint64_t digest(const Outcome& outcome) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  for (std::size_t m = 0; m < outcome.jobs.size(); ++m) {
    mix(outcome.jobs[m].size());
    for (const JobId job : outcome.jobs[m]) mix(job);
    mix(std::bit_cast<std::uint64_t>(outcome.loads[m]));
  }
  mix(outcome.exchanges);
  mix(outcome.migrations);
  return hash;
}

Outcome sim_baseline(const Instance& instance, std::uint64_t seed,
                         std::size_t rounds) {
  Schedule replica(instance, gen::random_assignment(instance, seed));
  des::Engine engine;
  ConstantLatency latency(0.01);
  stats::Rng rng = stats::Rng::stream(seed, 0x7E57);
  Network network(engine, latency, rng);
  SimTransport transport(engine, network, instance.num_machines());
  const dist::Dlb2cKernel kernel;
  dist::TransportRunnerOptions options;
  options.kernel = &kernel;
  options.seed = seed;
  options.rounds = rounds;
  dist::TransportRunner runner(replica, transport, options);
  runner.start();
  runner.run_to_completion();
  Outcome baseline;
  for (MachineId m = 0; m < instance.num_machines(); ++m) {
    baseline.jobs.push_back(runner.sorted_jobs(m));
    baseline.loads.push_back(runner.canonical_load(m));
  }
  baseline.exchanges = runner.counters().exchanges;
  baseline.migrations = runner.counters().migrations;
  return baseline;
}

/// Runs the plan on `count` in-process SocketTransport hosts polled in
/// turn from this thread, and stitches the authoritative rows together.
Outcome run_cluster(const Instance& instance, std::uint64_t seed,
                    std::size_t rounds, std::size_t count, bool use_unix,
                    const std::string& tag, const FaultPlan* chaos) {
  const std::vector<HostSpec> hosts =
      make_hosts(use_unix, tag, instance.num_machines(), count);
  const dist::Dlb2cKernel kernel;
  dist::TransportRunnerOptions runner_options;
  runner_options.kernel = &kernel;
  runner_options.seed = seed;
  runner_options.rounds = rounds;
  runner_options.retry_timeout = 0.05;

  std::vector<std::unique_ptr<SocketTransport>> transports;
  std::vector<std::unique_ptr<Schedule>> replicas;
  std::vector<std::unique_ptr<dist::TransportRunner>> runners;
  for (std::size_t h = 0; h < count; ++h) {
    SocketTransportOptions options;
    options.hosts = hosts;
    options.self = h;
    options.chaos = chaos;
    transports.push_back(std::make_unique<SocketTransport>(options));
    replicas.push_back(std::make_unique<Schedule>(
        instance, gen::random_assignment(instance, seed)));
    runners.push_back(std::make_unique<dist::TransportRunner>(
        *replicas[h], *transports[h], runner_options));
  }

  // Higher ranks dial first; each lower rank's connect() then drains its
  // backlog and promotes the HELLOs — no second thread needed.
  for (std::size_t h = count; h-- > 0;) transports[h]->connect();
  for (auto& runner : runners) runner->start();

  const auto all_done = [&runners] {
    for (const auto& runner : runners) {
      if (!runner->done()) return false;
    }
    return true;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  Outcome outcome;
  while (!all_done()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << "cluster did not converge";
      return outcome;
    }
    for (auto& transport : transports) transport->poll(0.005);
  }

  for (MachineId m = 0; m < instance.num_machines(); ++m) {
    std::size_t owner = 0;
    while (m >= hosts[owner].machine_hi) ++owner;
    outcome.jobs.push_back(runners[owner]->sorted_jobs(m));
    outcome.loads.push_back(runners[owner]->canonical_load(m));
  }
  for (const auto& runner : runners) {
    outcome.exchanges += runner->counters().exchanges;
    outcome.migrations += runner->counters().migrations;
  }
  return outcome;
}

void expect_same_outcome(const Outcome& actual, const Outcome& expected) {
  ASSERT_EQ(actual.jobs.size(), expected.jobs.size());
  for (std::size_t m = 0; m < expected.jobs.size(); ++m) {
    EXPECT_EQ(actual.jobs[m], expected.jobs[m]) << "machine " << m;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.loads[m]),
              std::bit_cast<std::uint64_t>(expected.loads[m]))
        << "machine " << m;
  }
  EXPECT_EQ(actual.exchanges, expected.exchanges);
  EXPECT_EQ(actual.migrations, expected.migrations);
}

void run_two_host_cluster(const Instance& instance, std::uint64_t seed,
                          std::size_t rounds, bool use_unix,
                          const std::string& tag,
                          const FaultPlan* chaos) {
  // Authoritative rows, stitched across the two runners, must match the
  // simulated baseline bit for bit.
  expect_same_outcome(
      run_cluster(instance, seed, rounds, 2, use_unix, tag, chaos),
      sim_baseline(instance, seed, rounds));
}

TEST(SocketTransport, UnixClusterMatchesSimBitwise) {
  const Instance instance =
      gen::two_cluster_uniform(2, 2, 32, 1.0, 100.0, 12);
  run_two_host_cluster(instance, 13, 3, /*use_unix=*/true, "unix",
                       nullptr);
}

TEST(SocketTransport, TcpClusterMatchesSimBitwise) {
  const Instance instance =
      gen::two_cluster_uniform(2, 2, 32, 1.0, 100.0, 12);
  run_two_host_cluster(instance, 13, 3, /*use_unix=*/false, "tcp",
                       nullptr);
}

TEST(SocketTransport, ChaosProxyPreservesOutcome) {
  const Instance instance =
      gen::two_cluster_uniform(2, 2, 32, 1.0, 100.0, 12);
  const FaultPlan chaos = fault_plan_by_name("chaos", 0.2, 77);
  run_two_host_cluster(instance, 13, 3, /*use_unix=*/true, "chaos",
                       &chaos);
}

// Outcome digests captured from the runner before its ACCEPT path was
// rewritten to sort each row once. The lockstep outcome is independent
// of the deployment, so one digest per seed holds for every host count.
struct Golden {
  std::uint64_t seed;
  std::uint64_t digest;
  std::uint64_t exchanges;
  std::uint64_t migrations;
};
constexpr Golden kGolden[] = {
    {3, 0x33939aa9edfe7254ULL, 36, 406},
    {17, 0xf3851e4c55634dcfULL, 34, 422},
    {41, 0xb5e2e1b73478c6e6ULL, 32, 333},
};

void expect_golden(std::size_t hosts) {
  const Instance instance =
      gen::two_cluster_uniform(6, 3, 144, 1.0, 100.0, 31);
  for (const Golden& golden : kGolden) {
    const Outcome outcome =
        run_cluster(instance, golden.seed, 4, hosts, /*use_unix=*/true,
                    "golden" + std::to_string(hosts), nullptr);
    EXPECT_EQ(digest(outcome), golden.digest)
        << "seed " << golden.seed << " digest 0x" << std::hex
        << digest(outcome);
    EXPECT_EQ(outcome.exchanges, golden.exchanges) << "seed " << golden.seed;
    EXPECT_EQ(outcome.migrations, golden.migrations)
        << "seed " << golden.seed;
    expect_same_outcome(outcome, sim_baseline(instance, golden.seed, 4));
  }
}

TEST(SocketTransportGolden, TwoHostsMatchPinnedDigests) { expect_golden(2); }

TEST(SocketTransportGolden, ThreeHostsMatchPinnedDigests) {
  expect_golden(3);
}

TEST(SocketTransport, ChaosReleasesHeldFramesBehindADelayedFrame) {
  // Seed 10 on host 0's chaos stream holds the first frame (reorder, no
  // delay) and delays the second, which releases it. As on the simulated
  // Network, the held frame must arrive behind its releaser.
  FaultPlan plan;
  plan.delay_probability = 0.5;
  plan.reorder_probability = 0.5;
  plan.delay_lo = 0.02;
  plan.delay_hi = 0.04;
  plan.seed = 10;
  const std::vector<HostSpec> hosts = make_hosts(true, "reorder", 2, 2);
  SocketTransportOptions options_a;
  options_a.hosts = hosts;
  options_a.self = 0;
  options_a.chaos = &plan;
  SocketTransportOptions options_b;
  options_b.hosts = hosts;
  options_b.self = 1;
  SocketTransport transport_a(options_a);
  SocketTransport transport_b(options_b);
  std::vector<std::uint64_t> arrived;
  transport_a.set_handler([](const Frame&) {});
  transport_b.set_handler(
      [&arrived](const Frame& frame) { arrived.push_back(frame.token); });
  transport_b.connect();
  transport_a.connect();

  for (const std::uint64_t token : {1, 2}) {
    Frame frame;
    frame.from = 0;
    frame.to = 1;
    frame.token = token;
    transport_a.send(frame);
  }
  EXPECT_EQ(transport_a.chaos_stats().reordered, 1u);
  EXPECT_EQ(transport_a.chaos_stats().delayed, 1u);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (arrived.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    transport_a.poll(0.005);
    transport_b.poll(0.005);
  }
  EXPECT_EQ(arrived, (std::vector<std::uint64_t>{2, 1}));
}

TEST(SocketTransport, RejectsBadManifest) {
  SocketTransportOptions options;
  options.hosts.resize(2);
  options.hosts[0] = {"unix:/tmp/dlb_gap_a.sock", 0, 2};
  options.hosts[1] = {"unix:/tmp/dlb_gap_b.sock", 3, 4};  // gap: machine 2
  options.self = 0;
  EXPECT_THROW(SocketTransport{options}, std::invalid_argument);

  // The listener address must parse; a malformed scheme fails fast.
  options.hosts[0] = {"nonsense-address", 0, 3};
  options.hosts[1] = {"unix:/tmp/dlb_gap_b.sock", 3, 4};
  EXPECT_THROW(SocketTransport{options}, std::invalid_argument);
}

TEST(SocketTransport, ListenAddressIsConcrete) {
  // Port 0 asks the OS for an ephemeral port; listen_address() must
  // report the port actually bound, which is what a launcher advertises.
  SocketTransportOptions options;
  options.hosts.resize(2);
  options.hosts[0] = {"tcp:127.0.0.1:0", 0, 1};
  options.hosts[1] = {"tcp:127.0.0.1:0", 1, 2};
  options.self = 0;
  SocketTransport transport(options);
  const std::string address = transport.listen_address();
  EXPECT_EQ(address.rfind("tcp:", 0), 0u);
  EXPECT_NE(address, "tcp:127.0.0.1:0");
}

}  // namespace
}  // namespace dlb::net
