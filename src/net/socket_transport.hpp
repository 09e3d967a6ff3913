#pragma once

// The real-socket Transport backend: frames travel between OS processes
// over TCP or Unix-domain stream sockets, timers run on a monotonic wall
// clock. One SocketTransport is one *host* of a deployment — it speaks
// for a contiguous range of machine ids and holds one connection to every
// other host (host j initiates the connection to every host i < j and
// introduces itself with a HELLO frame, so each pair has exactly one
// link). Single-threaded: all I/O happens inside poll(), driven by the
// owner's event loop.
//
// Chaos proxy: attaching a net::FaultPlan perturbs outgoing remote frames
// with the same seeded drop/delay/duplicate/reorder decisions the
// simulated Network applies — the fuzz battery's fault semantics, applied
// to real bytes on real connections. Decisions draw from a per-host
// stream of the plan seed, so a cluster's chaos is reproducible from the
// manifest.
//
// Observability: counters net.socket.frames_sent / frames_received /
// bytes_sent / bytes_received / connects / accepts / disconnects /
// decode_errors (plus net.socket.faults.* when a chaos plan is live) and
// tracer instants CONNECT / DISCONNECT / FRAME on the wall clock.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "net/clock.hpp"
#include "net/fault.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"
#include "stats/rng.hpp"

namespace dlb::net {

/// One endpoint of a deployment: where it listens and which machines it
/// speaks for ([machine_lo, machine_hi)). Addresses are
/// "unix:/path/to.sock" or "tcp:HOST:PORT" (PORT 0 = ephemeral; see
/// listen_address()).
struct HostSpec {
  std::string address;
  MachineId machine_lo = 0;
  MachineId machine_hi = 0;
};

struct SocketTransportOptions {
  /// All hosts of the deployment, index = host rank. Machine ranges must
  /// tile [0, num_machines) without gaps or overlaps.
  std::vector<HostSpec> hosts;
  /// This process's index into `hosts`.
  std::size_t self = 0;
  /// Optional chaos proxy on outgoing remote frames (must outlive the
  /// transport; null = faithful delivery).
  const FaultPlan* chaos = nullptr;
  /// Optional observability sinks (must outlive the transport).
  const obs::Context* obs = nullptr;
  /// Budget for connect() to establish the full mesh.
  double connect_timeout = 15.0;
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(SocketTransportOptions options);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  void set_handler(FrameHandler handler) override {
    handler_ = std::move(handler);
  }

  /// Binds the listener immediately on construction; connect() then
  /// dials every lower-ranked host and waits for every higher-ranked one,
  /// exchanging HELLOs, until the mesh is complete or connect_timeout
  /// elapses (throws std::runtime_error).
  void connect() override;

  void send(const Frame& frame) override;
  void schedule_after(double delay, TimerCallback callback) override;
  [[nodiscard]] const Clock& clock() const override { return clock_; }
  [[nodiscard]] const std::vector<MachineId>& local_machines()
      const override {
    return machines_;
  }
  [[nodiscard]] std::size_t num_machines() const override {
    return total_machines_;
  }
  [[nodiscard]] bool reachable(MachineId machine) const override;
  std::size_t poll(double max_wait) override;

  /// The bound listen address with any ephemeral TCP port resolved —
  /// what other hosts should put in their HostSpec for this host.
  [[nodiscard]] const std::string& listen_address() const noexcept {
    return listen_address_;
  }

  /// Marks a host's link administratively down (crash handling: the
  /// controller tells survivors about a kill before TCP keepalive
  /// would). Idempotent; reachable() turns false for its machines.
  void mark_down(std::size_t host);

  /// True once `host`'s link is connected and not down.
  [[nodiscard]] bool host_up(std::size_t host) const;

  /// Watches an external fd for readability inside poll() — the daemon
  /// hangs its control channel here so one event loop drives everything.
  void add_watch(int fd, std::function<void()> on_ready);
  void remove_watch(int fd);

  [[nodiscard]] const FaultStats& chaos_stats() const noexcept {
    return chaos_.stats();
  }

 private:
  struct Link {
    int fd = -1;
    bool up = false;        ///< HELLO exchanged, never down since.
    bool was_up = false;    ///< Went up at least once (down = crash).
    FrameReader reader;
    std::vector<std::uint8_t> outbuf;
  };
  struct Timer {
    double deadline = 0.0;
    std::uint64_t seq = 0;
    TimerCallback callback;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const noexcept {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  void open_listener();
  void enqueue_wire(std::size_t host, const Frame& frame);
  void flush_link(std::size_t host);
  /// Reads everything available; returns frames delivered. Fails the
  /// link on EOF, error, or a framing error.
  std::size_t drain_link(std::size_t host);
  void fail_link(std::size_t host, const char* why);
  void accept_pending();
  void dispatch(std::size_t host, const Frame& frame, std::size_t& count);
  [[nodiscard]] std::size_t host_of(MachineId machine) const;
  void trace_instant(const char* name, std::int64_t host);

  SocketTransportOptions options_;
  MonotonicClock clock_;
  FrameHandler handler_;
  std::vector<MachineId> machines_;
  std::size_t total_machines_ = 0;
  std::vector<Link> links_;  ///< Indexed by host rank; self unused.
  int listen_fd_ = -1;
  std::string listen_address_;
  std::string unix_path_;  ///< Unlinked on destruction when non-empty.
  /// Accepted connections that have not yet identified themselves.
  std::vector<std::pair<int, FrameReader>> pending_accepts_;
  std::deque<Frame> local_queue_;
  std::priority_queue<Timer, std::vector<Timer>, TimerLater> timers_;
  std::uint64_t next_timer_seq_ = 0;
  std::map<int, std::function<void()>> watches_;

  FaultInjector chaos_;

  obs::Counter* c_frames_sent_ = nullptr;
  obs::Counter* c_frames_received_ = nullptr;
  obs::Counter* c_bytes_sent_ = nullptr;
  obs::Counter* c_bytes_received_ = nullptr;
  obs::Counter* c_connects_ = nullptr;
  obs::Counter* c_accepts_ = nullptr;
  obs::Counter* c_disconnects_ = nullptr;
  obs::Counter* c_decode_errors_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace dlb::net
