// The daemon's operator command channel exercised in process: two Daemons
// over Unix-domain sockets run the protocol to completion, then the
// observability commands (`metrics`, `scrape`, `flight`, `trace`) must
// return well-formed, parseable replies, `resume` must undo what happened
// to the replica since `checkpoint` — and once `shutdown` has been
// accepted, every further command is refused with a clean error rather
// than a truncated export (the scrape-vs-shutdown race of the PR).

#include "daemon/daemon.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/generators.hpp"
#include "dist/checkpoint.hpp"
#include "dist/dlb2c.hpp"
#include "golden_digest.hpp"
#include "net/socket_transport.hpp"
#include "stats/json.hpp"

namespace dlb::daemon {
namespace {

std::vector<net::HostSpec> make_unix_hosts(const std::string& tag,
                                           std::size_t machines) {
  const MachineId split = static_cast<MachineId>(machines / 2);
  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string unique = tag + "_" + std::to_string(::getpid());
  std::vector<net::HostSpec> hosts(2);
  hosts[0].address = "unix:" + dir + "/dlb_dmn_" + unique + "_a.sock";
  hosts[1].address = "unix:" + dir + "/dlb_dmn_" + unique + "_b.sock";
  hosts[0].machine_lo = 0;
  hosts[0].machine_hi = split;
  hosts[1].machine_lo = split;
  hosts[1].machine_hi = static_cast<MachineId>(machines);
  return hosts;
}

struct Pair {
  std::unique_ptr<Daemon> a;
  std::unique_ptr<Daemon> b;
};

/// Two in-process daemons run to protocol completion (higher rank dials
/// first, as everywhere else in the socket tests).
Pair converged_pair(const Instance& instance, const std::string& tag,
                    const dist::Dlb2cKernel& kernel, bool trace,
                    double retry_timeout = 0.05) {
  DaemonOptions options;
  options.hosts = make_unix_hosts(tag, instance.num_machines());
  options.kernel = &kernel;
  options.seed = 13;
  options.rounds = 3;
  options.retry_timeout = retry_timeout;
  options.trace = trace;
  Pair pair;
  options.self = 0;
  pair.a = std::make_unique<Daemon>(instance, options);
  options.self = 1;
  pair.b = std::make_unique<Daemon>(instance, options);
  pair.b->connect_and_start();
  pair.a->connect_and_start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!(pair.a->runner().done() && pair.b->runner().done())) {
    EXPECT_LT(std::chrono::steady_clock::now(), deadline)
        << "daemons did not converge";
    if (std::chrono::steady_clock::now() >= deadline) break;
    pair.a->poll(0.005);
    pair.b->poll(0.005);
  }
  return pair;
}

/// The data lines of a reply, i.e. everything before the "ok" terminator.
std::string payload_of(const std::string& reply) {
  EXPECT_TRUE(reply.size() >= 3 && reply.rfind("ok\n") == reply.size() - 3)
      << reply;
  return reply.substr(0, reply.size() - 3);
}

TEST(Daemon, MetricsReplyCarriesSocketAndUptimeSeries) {
  const Instance instance =
      gen::two_cluster_uniform(2, 2, 32, 1.0, 100.0, 12);
  const dist::Dlb2cKernel kernel;
  Pair pair = converged_pair(instance, "metrics", kernel, /*trace=*/false);

  const std::string body = payload_of(pair.a->execute("metrics"));
  const stats::Json doc = stats::Json::parse(body);
  const stats::Json* counters = doc.find("counters");
  const stats::Json* gauges = doc.find("gauges");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(counters->find("dist.transport.sessions"), nullptr);
  // Socket byte/frame accounting from the transport layer...
  EXPECT_NE(body.find("net.socket."), std::string::npos);
  // ...and the uptime gauge refreshed at scrape time.
  const stats::Json* uptime = gauges->find("daemon.uptime_seconds");
  ASSERT_NE(uptime, nullptr);
  EXPECT_GE(uptime->as_number(), 0.0);

  (void)pair.a->execute("shutdown");
  (void)pair.b->execute("shutdown");
}

TEST(Daemon, ScrapeReturnsPrometheusExposition) {
  const Instance instance =
      gen::two_cluster_uniform(2, 2, 32, 1.0, 100.0, 12);
  const dist::Dlb2cKernel kernel;
  Pair pair = converged_pair(instance, "scrape", kernel, /*trace=*/false);

  const std::string body = payload_of(pair.a->execute("scrape"));
  EXPECT_NE(body.find("# TYPE dlb_dist_transport_sessions counter"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("dlb_daemon_uptime_seconds"), std::string::npos);

  (void)pair.a->execute("shutdown");
  (void)pair.b->execute("shutdown");
}

TEST(Daemon, FlightAndTraceExportsParse) {
  const Instance instance =
      gen::two_cluster_uniform(2, 2, 32, 1.0, 100.0, 12);
  const dist::Dlb2cKernel kernel;
  Pair pair = converged_pair(instance, "flight", kernel, /*trace=*/true);

  const stats::Json flight =
      stats::Json::parse(payload_of(pair.a->execute("flight")));
  const stats::Json* schema = flight.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "dlb-flight-v1");
  const stats::Json* samples = flight.find("samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_GT(samples->as_array().size(), 0u);

  const stats::Json trace =
      stats::Json::parse(payload_of(pair.a->execute("trace")));
  const stats::Json* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->as_array().size(), 0u);

  (void)pair.a->execute("shutdown");
  (void)pair.b->execute("shutdown");
}

TEST(Daemon, TraceCommandFailsCleanlyWhenTracingIsOff) {
  const Instance instance =
      gen::two_cluster_uniform(2, 2, 32, 1.0, 100.0, 12);
  const dist::Dlb2cKernel kernel;
  Pair pair = converged_pair(instance, "notrace", kernel, /*trace=*/false);

  const std::string reply = pair.a->execute("trace");
  EXPECT_EQ(reply.rfind("error: ", 0), 0u) << reply;

  (void)pair.a->execute("shutdown");
  (void)pair.b->execute("shutdown");
}

TEST(Daemon, CommandsAfterShutdownAreRefused) {
  const Instance instance =
      gen::two_cluster_uniform(2, 2, 32, 1.0, 100.0, 12);
  const dist::Dlb2cKernel kernel;
  Pair pair = converged_pair(instance, "refuse", kernel, /*trace=*/true);

  EXPECT_EQ(pair.a->execute("shutdown"), "ok\n");
  EXPECT_TRUE(pair.a->shutdown_requested());
  // A scrape racing the daemon's exit gets a clean refusal, never a
  // truncated export — for every command, including the exports.
  for (const std::string command :
       {"metrics", "scrape", "flight", "trace", "status", "shutdown"}) {
    EXPECT_EQ(pair.a->execute(command), "error: daemon is shutting down\n")
        << command;
  }

  (void)pair.b->execute("shutdown");
}

TEST(Daemon, ServeAnswersCommandsThatArriveWithTheEof) {
  // `printf 'status\n' | dlbd ...`: the command and the EOF reach serve()
  // in one read, and the command still gets its real reply.
  const Instance instance =
      gen::two_cluster_uniform(2, 2, 32, 1.0, 100.0, 12);
  const dist::Dlb2cKernel kernel;
  Pair pair = converged_pair(instance, "pipe", kernel, /*trace=*/false,
                             /*retry_timeout=*/30.0);
  const std::string expected = pair.a->execute("status");
  ASSERT_EQ(expected.rfind("state done\n", 0), 0u) << expected;

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string input = "status\n";
  ASSERT_EQ(::write(fds[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  ::close(fds[1]);
  std::ostringstream out;
  std::ostringstream log;
  pair.a->serve(fds[0], out, log);
  ::close(fds[0]);

  EXPECT_EQ(out.str(), expected);
  EXPECT_TRUE(pair.a->shutdown_requested());
  (void)pair.b->execute("shutdown");
}

TEST(Daemon, HostileAdoptIsRefusedAndTheDaemonKeepsServing) {
  const Instance instance =
      gen::two_cluster_uniform(2, 2, 32, 1.0, 100.0, 12);
  const dist::Dlb2cKernel kernel;
  Pair pair = converged_pair(instance, "adopt", kernel, /*trace=*/false);
  const std::string jobs_before = pair.a->execute("jobs");

  // A job id past the instance, a negative id, an id past 32 bits, a bad
  // id after a good one and a machine past the instance: each is refused
  // before any job moves.
  for (const std::string command :
       {"adopt 0 4000000000", "adopt 0 -1", "adopt 0 4294967296",
        "adopt 0 1 99", "adopt 4000000000 1"}) {
    const std::string reply = pair.a->execute(command);
    EXPECT_EQ(reply.rfind("error: ", 0), 0u) << command << ": " << reply;
  }
  EXPECT_EQ(pair.a->execute("jobs"), jobs_before);
  const std::string status = pair.a->execute("status");
  EXPECT_EQ(status.rfind("state done\n", 0), 0u) << status;
  EXPECT_EQ(status.substr(status.size() - 3), "ok\n");

  (void)pair.a->execute("shutdown");
  (void)pair.b->execute("shutdown");
}

TEST(Daemon, CheckpointThenResumeRestoresTheReplica) {
  const Instance instance =
      gen::two_cluster_uniform(2, 2, 32, 1.0, 100.0, 12);
  const dist::Dlb2cKernel kernel;
  Pair pair = converged_pair(instance, "resume", kernel, /*trace=*/false,
                             /*retry_timeout=*/30.0);
  const std::string status_before = pair.a->execute("status");
  const std::string jobs_before = pair.a->execute("jobs");
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dlb_dmn_resume_" + std::to_string(::getpid()) + ".ckpt"))
          .string();

  EXPECT_EQ(pair.a->execute("checkpoint " + path),
            "wrote " + path + "\nok\n");
  const dist::Checkpoint written = dist::Checkpoint::load_file(path);
  EXPECT_EQ(written.num_machines, instance.num_machines());
  EXPECT_EQ(written.num_jobs, instance.num_jobs());
  ASSERT_EQ(written.assignment.size(), instance.num_jobs());
  ASSERT_EQ(written.loads.size(), instance.num_machines());

  // Move every job of local machine 1 onto local machine 0.
  std::string adopt = "adopt 0";
  for (JobId job = 0; job < written.assignment.size(); ++job) {
    if (written.assignment[job] == 1) adopt += " " + std::to_string(job);
  }
  ASSERT_NE(adopt, "adopt 0");
  EXPECT_EQ(pair.a->execute(adopt).rfind("adopted ", 0), 0u);
  ASSERT_NE(pair.a->execute("jobs"), jobs_before);

  EXPECT_EQ(pair.a->execute("resume " + path),
            "restored " + path + "\nok\n");
  EXPECT_EQ(pair.a->execute("status"), status_before);
  EXPECT_EQ(pair.a->execute("jobs"), jobs_before);
  std::filesystem::remove(path);

  (void)pair.a->execute("shutdown");
  (void)pair.b->execute("shutdown");
}

TEST(Daemon, HelpStatusAndJobsRepliesArePinned) {
  // A digest of both hosts' replies pins their bytes across commits. The
  // retry timeout is far above any lockstep round trip, so the retry and
  // duplicate counters in `status` stay 0 and the replies are
  // deterministic.
  const Instance instance =
      gen::two_cluster_uniform(2, 2, 32, 1.0, 100.0, 12);
  const dist::Dlb2cKernel kernel;
  Pair pair = converged_pair(instance, "golden", kernel, /*trace=*/false,
                             /*retry_timeout=*/30.0);
  golden::Digest digest;
  for (Daemon* daemon : {pair.a.get(), pair.b.get()}) {
    for (const char* command : {"help", "status", "jobs"}) {
      digest.add(daemon->execute(command));
    }
  }
  EXPECT_EQ(digest.value(), 0x1E6C72C68FE2B903ULL)
      << "digest 0x" << std::hex << digest.value();

  (void)pair.a->execute("shutdown");
  (void)pair.b->execute("shutdown");
}

}  // namespace
}  // namespace dlb::daemon
