#pragma once

// dlbd: the load-balancing daemon. One Daemon is one host of a real
// deployment — it owns a SocketTransport endpoint, a full Schedule
// replica, and the lockstep TransportRunner driving the protocol for its
// machine range. A small line-oriented text command channel (stdin ->
// stdout when served by dlbd, or execute() directly in tests) exposes
// operations through a static command table: `help`, `status`, `jobs`,
// `drain`, `checkpoint <path>`, `resume <path>`, `adopt <machine>
// <job>...`, `mark-dead <machine>`, `inject <token>`, `metrics`,
// `scrape`, `flight`, `trace`, `shutdown`. Every command's reply is zero
// or more data lines followed by a terminator line: "ok" or "error:
// <message>" — the cluster launcher (tools/dlb_cluster.py) reads until
// the terminator. Once `shutdown` has been accepted, every further
// command is refused with a clean error, so a scrape racing the daemon's
// exit can never observe a truncated reply.
//
// The channel rides the transport's own poll loop (add_watch on the
// input fd), so the daemon stays single-threaded: protocol frames,
// retransmit timers, and operator commands interleave at frame
// granularity and never race.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "dist/transport_runner.hpp"
#include "net/fault.hpp"
#include "net/socket_transport.hpp"
#include "obs/obs.hpp"
#include "pairwise/pair_kernel.hpp"

namespace dlb::daemon {

struct DaemonOptions {
  /// The deployment manifest (every host, same order everywhere).
  std::vector<net::HostSpec> hosts;
  /// This daemon's index into `hosts`.
  std::size_t self = 0;
  const pairwise::PairKernel* kernel = nullptr;
  std::uint64_t seed = 1;
  std::size_t rounds = 10;
  double retry_timeout = 0.5;
  double connect_timeout = 15.0;
  /// Chaos proxy on outgoing frames (trivial = faithful delivery).
  net::FaultPlan fault;
  /// Collect trace events (written by dlbd on shutdown when requested).
  bool trace = false;
};

/// Parses a manifest string "ADDR=LO-HI,ADDR=LO-HI,..." where ADDR is
/// "unix:/path" or "tcp:HOST:PORT" and LO-HI is an inclusive machine-id
/// range. Throws std::invalid_argument on malformed input.
[[nodiscard]] std::vector<net::HostSpec> parse_host_manifest(
    const std::string& manifest);

class Daemon {
 public:
  /// Binds the listener (the address is live immediately); the instance
  /// must outlive the daemon. The replica starts from the same seeded
  /// random assignment every peer and the sim reference use.
  Daemon(const Instance& instance, DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Completes the connection mesh and starts the protocol. Throws on
  /// connect timeout.
  void connect_and_start();

  /// Executes one command line; returns the full reply including the
  /// trailing "ok\n" / "error: ...\n" terminator line.
  [[nodiscard]] std::string execute(const std::string& line);

  /// Serves the command channel from `input_fd` (replies to `out`) while
  /// pumping the protocol, until `shutdown` arrives or the input hits
  /// EOF. Complete lines read together with the EOF are still answered.
  /// This is dlbd's main loop.
  void serve(int input_fd, std::ostream& out, std::ostream& log);

  /// One protocol pump, for in-process tests driving several daemons.
  std::size_t poll(double max_wait) { return transport_->poll(max_wait); }

  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_;
  }
  [[nodiscard]] net::SocketTransport& transport() noexcept {
    return *transport_;
  }
  [[nodiscard]] dist::TransportRunner& runner() noexcept {
    return *runner_;
  }
  [[nodiscard]] const obs::Metrics& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const obs::Tracer& tracer() const noexcept {
    return tracer_;
  }
  [[nodiscard]] const obs::FlightRecorder& flight() const noexcept {
    return flight_;
  }

  // Command handlers — public so the command table in daemon.cpp can
  // bind names to them; use execute() rather than calling these.
  std::string cmd_help(const std::vector<std::string>& args);
  std::string cmd_status(const std::vector<std::string>& args);
  std::string cmd_jobs(const std::vector<std::string>& args);
  std::string cmd_drain(const std::vector<std::string>& args);
  std::string cmd_checkpoint(const std::vector<std::string>& args);
  std::string cmd_resume(const std::vector<std::string>& args);
  std::string cmd_adopt(const std::vector<std::string>& args);
  std::string cmd_mark_dead(const std::vector<std::string>& args);
  std::string cmd_inject(const std::vector<std::string>& args);
  std::string cmd_metrics(const std::vector<std::string>& args);
  std::string cmd_scrape(const std::vector<std::string>& args);
  std::string cmd_flight(const std::vector<std::string>& args);
  std::string cmd_trace(const std::vector<std::string>& args);
  std::string cmd_shutdown(const std::vector<std::string>& args);

 private:
  /// Refreshes the daemon.uptime_seconds gauge (scrape-time, not a
  /// background timer: the channel is single-threaded anyway).
  void refresh_uptime();

  const Instance* instance_;
  DaemonOptions options_;
  obs::Metrics metrics_;
  obs::Tracer tracer_;
  obs::FlightRecorder flight_;
  obs::Context obs_;
  Schedule replica_;
  std::unique_ptr<net::SocketTransport> transport_;
  std::unique_ptr<dist::TransportRunner> runner_;
  double started_at_ = 0.0;  ///< transport clock at construction
  bool shutdown_ = false;
};

}  // namespace dlb::daemon
