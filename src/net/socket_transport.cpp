#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace dlb::net {

namespace {

struct ParsedAddress {
  bool is_unix = false;
  std::string path;  ///< Unix socket path.
  std::string host;  ///< TCP numeric host (or "localhost").
  std::uint16_t port = 0;
};

ParsedAddress parse_address(const std::string& address) {
  ParsedAddress parsed;
  if (address.rfind("unix:", 0) == 0) {
    parsed.is_unix = true;
    parsed.path = address.substr(5);
    if (parsed.path.empty() || parsed.path.size() >= 100) {
      throw std::invalid_argument("SocketTransport: bad unix path in '" +
                                  address + "'");
    }
    return parsed;
  }
  if (address.rfind("tcp:", 0) == 0) {
    const std::string rest = address.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      throw std::invalid_argument(
          "SocketTransport: expected tcp:HOST:PORT in '" + address + "'");
    }
    parsed.host = rest.substr(0, colon);
    const long port = std::stol(rest.substr(colon + 1));
    if (port < 0 || port > 65535) {
      throw std::invalid_argument("SocketTransport: bad port in '" +
                                  address + "'");
    }
    parsed.port = static_cast<std::uint16_t>(port);
    return parsed;
  }
  throw std::invalid_argument(
      "SocketTransport: address must start with unix: or tcp: ('" +
      address + "')");
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

in_addr resolve_host(const std::string& host) {
  in_addr addr{};
  const std::string numeric = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr) != 1) {
    throw std::invalid_argument(
        "SocketTransport: host must be a numeric IPv4 address ('" + host +
        "')");
  }
  return addr;
}

sockaddr_un make_unix_sockaddr(const std::string& path) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  std::strncpy(sa.sun_path, path.c_str(), sizeof(sa.sun_path) - 1);
  return sa;
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportOptions options)
    : options_(std::move(options)),
      chaos_(0xC4A05 + options_.self, "net.socket.faults.") {
  if (options_.self >= options_.hosts.size()) {
    throw std::invalid_argument("SocketTransport: self index out of range");
  }
  // The host ranges must tile [0, N) exactly — a frame to any machine id
  // resolves to exactly one link.
  total_machines_ = 0;
  for (const HostSpec& host : options_.hosts) {
    if (host.machine_lo >= host.machine_hi) {
      throw std::invalid_argument(
          "SocketTransport: empty machine range for " + host.address);
    }
    total_machines_ =
        std::max<std::size_t>(total_machines_, host.machine_hi);
  }
  std::vector<std::uint8_t> covered(total_machines_, 0);
  for (const HostSpec& host : options_.hosts) {
    for (MachineId m = host.machine_lo; m < host.machine_hi; ++m) {
      if (covered[m] != 0) {
        throw std::invalid_argument(
            "SocketTransport: machine ranges overlap at machine " +
            std::to_string(m));
      }
      covered[m] = 1;
    }
  }
  if (std::count(covered.begin(), covered.end(), std::uint8_t{1}) !=
      static_cast<std::ptrdiff_t>(total_machines_)) {
    throw std::invalid_argument(
        "SocketTransport: machine ranges leave gaps");
  }
  const HostSpec& self = options_.hosts[options_.self];
  machines_.resize(self.machine_hi - self.machine_lo);
  std::iota(machines_.begin(), machines_.end(), self.machine_lo);
  links_.resize(options_.hosts.size());

  if (obs::Metrics* metrics = obs::metrics_of(options_.obs)) {
    c_frames_sent_ = &metrics->counter("net.socket.frames_sent");
    c_frames_received_ = &metrics->counter("net.socket.frames_received");
    c_bytes_sent_ = &metrics->counter("net.socket.bytes_sent");
    c_bytes_received_ = &metrics->counter("net.socket.bytes_received");
    c_connects_ = &metrics->counter("net.socket.connects");
    c_accepts_ = &metrics->counter("net.socket.accepts");
    c_disconnects_ = &metrics->counter("net.socket.disconnects");
    c_decode_errors_ = &metrics->counter("net.socket.decode_errors");
  }
  chaos_.set_plan(options_.chaos);
  chaos_.set_metrics(obs::metrics_of(options_.obs));
  tracer_ = obs::tracer_of(options_.obs);

  open_listener();
}

SocketTransport::~SocketTransport() {
  for (Link& link : links_) {
    if (link.fd >= 0) ::close(link.fd);
  }
  for (auto& [fd, reader] : pending_accepts_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

void SocketTransport::open_listener() {
  const ParsedAddress addr =
      parse_address(options_.hosts[options_.self].address);
  if (addr.is_unix) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error("SocketTransport: socket() failed");
    }
    ::unlink(addr.path.c_str());  // Stale socket from a crashed run.
    sockaddr_un sa = make_unix_sockaddr(addr.path);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) <
        0) {
      throw std::runtime_error("SocketTransport: cannot bind " + addr.path +
                               ": " + std::strerror(errno));
    }
    unix_path_ = addr.path;
    listen_address_ = "unix:" + addr.path;
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      throw std::runtime_error("SocketTransport: socket() failed");
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr = resolve_host(addr.host);
    sa.sin_port = htons(addr.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) <
        0) {
      throw std::runtime_error("SocketTransport: cannot bind " +
                               options_.hosts[options_.self].address + ": " +
                               std::strerror(errno));
    }
    socklen_t len = sizeof sa;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&sa), &len);
    listen_address_ =
        "tcp:" + addr.host + ":" + std::to_string(ntohs(sa.sin_port));
  }
  if (::listen(listen_fd_, 64) < 0) {
    throw std::runtime_error("SocketTransport: listen() failed");
  }
  set_nonblocking(listen_fd_);
}

void SocketTransport::trace_instant(const char* name, std::int64_t host) {
  if (tracer_ == nullptr) return;
  tracer_->instant(clock_.now() * 1e6,
                   options_.hosts[options_.self].machine_lo, name,
                   "net.socket", {{"host", host}});
}

void SocketTransport::connect() {
  const double deadline = clock_.now() + options_.connect_timeout;
  while (true) {
    bool all_up = true;
    // Dial every lower-ranked host that is not connected yet.
    for (std::size_t i = 0; i < options_.self; ++i) {
      Link& link = links_[i];
      if (link.up) continue;
      all_up = false;
      const ParsedAddress addr = parse_address(options_.hosts[i].address);
      int fd = -1;
      int rc = -1;
      if (addr.is_unix) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un sa = make_unix_sockaddr(addr.path);
        rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa);
      } else {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in sa{};
        sa.sin_family = AF_INET;
        sa.sin_addr = resolve_host(addr.host);
        sa.sin_port = htons(addr.port);
        rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa);
      }
      if (rc == 0) {
        set_nonblocking(fd);
        const int one = 1;
        if (!addr.is_unix) {
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        }
        link.fd = fd;
        link.up = true;
        link.was_up = true;
        const HostSpec& self = options_.hosts[options_.self];
        Frame hello;
        hello.type = FrameType::kHello;
        hello.from = self.machine_lo;
        hello.to = options_.hosts[i].machine_lo;
        hello.token = options_.self;
        hello.payload =
            encode_hello({static_cast<std::uint32_t>(options_.self),
                          self.machine_lo, self.machine_hi});
        enqueue_wire(i, hello);
        flush_link(i);
        if (c_connects_) c_connects_->add();
        trace_instant("CONNECT", static_cast<std::int64_t>(i));
      } else {
        ::close(fd);  // Peer not up yet; retry on the next pass.
      }
    }
    // Higher-ranked hosts dial us; their HELLO completes the link.
    for (std::size_t i = options_.self + 1; i < links_.size(); ++i) {
      all_up = all_up && links_[i].up;
    }
    if (all_up) return;
    if (clock_.now() >= deadline) {
      throw std::runtime_error(
          "SocketTransport: connect timeout — mesh incomplete after " +
          std::to_string(options_.connect_timeout) + "s");
    }
    poll(0.05);
  }
}

std::size_t SocketTransport::host_of(MachineId machine) const {
  for (std::size_t i = 0; i < options_.hosts.size(); ++i) {
    if (machine >= options_.hosts[i].machine_lo &&
        machine < options_.hosts[i].machine_hi) {
      return i;
    }
  }
  throw std::invalid_argument("SocketTransport: machine " +
                              std::to_string(machine) + " maps to no host");
}

bool SocketTransport::reachable(MachineId machine) const {
  const std::size_t host = host_of(machine);
  return host == options_.self || links_[host].up;
}

bool SocketTransport::host_up(std::size_t host) const {
  return host == options_.self ||
         (host < links_.size() && links_[host].up);
}

void SocketTransport::mark_down(std::size_t host) {
  if (host >= links_.size() || host == options_.self) return;
  if (links_[host].up || links_[host].fd >= 0) {
    fail_link(host, "marked down");
  }
}

void SocketTransport::add_watch(int fd, std::function<void()> on_ready) {
  watches_[fd] = std::move(on_ready);
}

void SocketTransport::remove_watch(int fd) { watches_.erase(fd); }

void SocketTransport::send(const Frame& frame) {
  if (!handler_) {
    throw std::logic_error("SocketTransport: send before set_handler");
  }
  const std::size_t host = host_of(frame.to);
  if (host == options_.self) {
    // Loopback: delivered from the local queue on the next poll. The
    // chaos proxy leaves loopback alone — it models the network, and
    // these frames never touch it.
    local_queue_.push_back(frame);
    return;
  }
  if (!chaos_.live()) {
    enqueue_wire(host, frame);
    flush_link(host);
    return;
  }
  // The simulated Network's fault policy, drawn from this host's chaos
  // stream, applied to real frames on a real connection. A delayed frame
  // waits on a timer; timers fire in deadline then scheduling order, so a
  // released frame still goes out behind its releaser.
  chaos_.send(
      [this, host, frame] {
        enqueue_wire(host, frame);
        flush_link(host);
      },
      [this](double extra, FaultInjector::Delivery ship) {
        if (extra > 0.0) {
          schedule_after(extra, std::move(ship));
        } else {
          ship();
        }
      });
}

void SocketTransport::enqueue_wire(std::size_t host, const Frame& frame) {
  Link& link = links_[host];
  if (!link.up && frame.type != FrameType::kHello) return;
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  link.outbuf.insert(link.outbuf.end(), bytes.begin(), bytes.end());
  if (c_frames_sent_) c_frames_sent_->add();
}

void SocketTransport::flush_link(std::size_t host) {
  Link& link = links_[host];
  if (link.fd < 0) return;
  while (!link.outbuf.empty()) {
    const ssize_t n = ::send(link.fd, link.outbuf.data(),
                             link.outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      if (c_bytes_sent_) c_bytes_sent_->add(static_cast<std::uint64_t>(n));
      link.outbuf.erase(link.outbuf.begin(), link.outbuf.begin() + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    fail_link(host, "write failed");
    return;
  }
}

void SocketTransport::fail_link(std::size_t host, const char* why) {
  if (std::getenv("DLB_SOCKET_LOG") != nullptr) {
    std::fprintf(stderr, "socket[%zu]: link to host %zu failed: %s (%s)\n",
                 options_.self, host, why, std::strerror(errno));
  }
  Link& link = links_[host];
  if (link.fd >= 0) {
    ::close(link.fd);
    link.fd = -1;
  }
  if (link.up || link.was_up) {
    if (c_disconnects_) c_disconnects_->add();
    trace_instant("DISCONNECT", static_cast<std::int64_t>(host));
  }
  link.up = false;
  link.outbuf.clear();
}

void SocketTransport::dispatch(std::size_t host, const Frame& frame,
                               std::size_t& count) {
  if (frame.type == FrameType::kHello) return;  // Re-introduction; known.
  const auto lo = options_.hosts[options_.self].machine_lo;
  const auto hi = options_.hosts[options_.self].machine_hi;
  if (frame.to < lo || frame.to >= hi) return;  // Misrouted; drop.
  if (c_frames_received_) c_frames_received_->add();
  if (tracer_) {
    tracer_->instant(clock_.now() * 1e6, frame.to, "FRAME", "net.socket",
                     {{"type", frame_type_name(frame.type)},
                      {"from", static_cast<std::int64_t>(frame.from)},
                      {"host", static_cast<std::int64_t>(host)}});
  }
  ++count;
  handler_(frame);
}

std::size_t SocketTransport::drain_link(std::size_t host) {
  Link& link = links_[host];
  std::size_t count = 0;
  std::uint8_t buffer[4096];
  while (link.fd >= 0) {
    const ssize_t n = ::recv(link.fd, buffer, sizeof buffer, 0);
    if (n > 0) {
      if (c_bytes_received_) {
        c_bytes_received_->add(static_cast<std::uint64_t>(n));
      }
      try {
        link.reader.feed(buffer, static_cast<std::size_t>(n));
      } catch (const FrameError&) {
        if (c_decode_errors_) c_decode_errors_->add();
        fail_link(host, "garbage frame");
        return count;
      }
      while (link.reader.has_frame()) {
        dispatch(host, link.reader.pop(), count);
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    fail_link(host, n == 0 ? "peer closed" : "read failed");
    break;
  }
  return count;
}

void SocketTransport::accept_pending() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (c_accepts_) c_accepts_->add();
    pending_accepts_.emplace_back(fd, FrameReader{});
  }
}

std::size_t SocketTransport::poll(double max_wait) {
  std::size_t count = 0;

  // Assemble the fd set: listener, links, half-open accepts, watches.
  std::vector<pollfd> fds;
  std::vector<int> kinds;  // 0 = listener, 1 = link, 2 = accept, 3 = watch
  std::vector<std::size_t> indices;
  fds.push_back({listen_fd_, POLLIN, 0});
  kinds.push_back(0);
  indices.push_back(0);
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (links_[i].fd < 0) continue;
    short events = POLLIN;
    if (!links_[i].outbuf.empty()) events |= POLLOUT;
    fds.push_back({links_[i].fd, events, 0});
    kinds.push_back(1);
    indices.push_back(i);
  }
  for (std::size_t i = 0; i < pending_accepts_.size(); ++i) {
    fds.push_back({pending_accepts_[i].first, POLLIN, 0});
    kinds.push_back(2);
    indices.push_back(i);
  }
  for (const auto& [fd, callback] : watches_) {
    fds.push_back({fd, POLLIN, 0});
    kinds.push_back(3);
    indices.push_back(0);
  }

  double wait = std::max(0.0, max_wait);
  if (!local_queue_.empty()) wait = 0.0;
  if (!timers_.empty()) {
    wait = std::min(wait, std::max(0.0, timers_.top().deadline -
                                            clock_.now()));
  }
  const int timeout_ms = static_cast<int>(wait * 1000.0);
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);

  if (ready > 0) {
    // Snapshot the watch callbacks: a callback may mutate watches_.
    std::vector<std::function<void()>> due_watches;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      switch (kinds[i]) {
        case 0:
          accept_pending();
          break;
        case 1:
          if (fds[i].revents & POLLOUT) flush_link(indices[i]);
          if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
            count += drain_link(indices[i]);
          }
          break;
        case 2: {
          // Half-open accepted connection: read until its HELLO names
          // the host, then promote it to a link (replacing any dead
          // one — that is how a restarted daemon reconnects).
          auto& [fd, reader] = pending_accepts_[indices[i]];
          std::uint8_t buffer[4096];
          const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
          if (n <= 0) {
            if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                           errno != EINTR)) {
              ::close(fd);
              fd = -1;
            }
            break;
          }
          if (c_bytes_received_) {
            c_bytes_received_->add(static_cast<std::uint64_t>(n));
          }
          try {
            reader.feed(buffer, static_cast<std::size_t>(n));
          } catch (const FrameError&) {
            if (c_decode_errors_) c_decode_errors_->add();
            ::close(fd);
            fd = -1;
            break;
          }
          if (!reader.has_frame()) break;
          const Frame first = reader.pop();
          if (first.type != FrameType::kHello) {
            ::close(fd);
            fd = -1;
            break;
          }
          const HelloPayload hello = decode_hello(first.payload);
          if (hello.host >= links_.size() || hello.host == options_.self) {
            ::close(fd);
            fd = -1;
            break;
          }
          Link& link = links_[hello.host];
          if (link.fd >= 0) ::close(link.fd);
          link.fd = fd;
          link.up = true;
          link.was_up = true;
          link.outbuf.clear();
          link.reader = std::move(reader);
          fd = -1;
          trace_instant("CONNECT", static_cast<std::int64_t>(hello.host));
          while (link.reader.has_frame()) {
            dispatch(hello.host, link.reader.pop(), count);
          }
          break;
        }
        case 3: {
          const auto it = watches_.find(fds[i].fd);
          if (it != watches_.end()) due_watches.push_back(it->second);
          break;
        }
      }
    }
    for (const auto& callback : due_watches) {
      ++count;
      callback();
    }
    pending_accepts_.erase(
        std::remove_if(pending_accepts_.begin(), pending_accepts_.end(),
                       [](const auto& entry) { return entry.first < 0; }),
        pending_accepts_.end());
  }

  // Loopback deliveries. The handler may push more (token cascades
  // between local machines); keep draining until it blocks on a remote.
  while (!local_queue_.empty()) {
    const Frame frame = local_queue_.front();
    local_queue_.pop_front();
    ++count;
    if (c_frames_received_) c_frames_received_->add();
    handler_(frame);
  }

  // Due timers. Only those due at entry: a retry callback re-arming
  // itself must not fire again in the same pass.
  const double now = clock_.now();
  while (!timers_.empty() && timers_.top().deadline <= now) {
    TimerCallback callback = timers_.top().callback;
    timers_.pop();
    ++count;
    callback();
  }
  return count;
}

void SocketTransport::schedule_after(double delay, TimerCallback callback) {
  timers_.push(Timer{clock_.now() + std::max(0.0, delay), next_timer_seq_++,
                     std::move(callback)});
}

}  // namespace dlb::net
