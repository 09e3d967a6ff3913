#include "dist/async_runner.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/transport.hpp"

namespace dlb::dist {

namespace {

/// One machine's session bookkeeping. `token` identifies the session the
/// machine is currently locked in (0 = none); every protocol message
/// carries its session's token so stale deliveries are detected instead of
/// flipping locks that belong to a newer session.
struct SessionSlot {
  bool locked = false;
  std::uint64_t token = 0;
  bool transfer_pending = false;
};

class AsyncSimulation {
 public:
  AsyncSimulation(Schedule& schedule, const pairwise::PairKernel& kernel,
                  const AsyncOptions& options)
      : schedule_(&schedule),
        kernel_(&kernel),
        options_(options),
        rng_(options.seed),
        network_(engine_, net::ConstantLatency(options.message_latency),
                 rng_),
        transport_(engine_, network_, schedule.num_machines()),
        slots_(schedule.num_machines()),
        last_token_(schedule.num_machines(), 0) {
    if (schedule.num_machines() < 2) {
      throw std::invalid_argument("run_async: need at least two machines");
    }
    if (!(options.mean_think_time > 0.0) || !(options.duration > 0.0)) {
      throw std::invalid_argument("run_async: times must be positive");
    }
    if (options.session_timeout.has_value() &&
        !(*options.session_timeout > 0.0)) {
      throw std::invalid_argument(
          "run_async: session_timeout must be positive when set");
    }
    obs::Metrics* metrics = obs::metrics_of(options.obs);
    tracer_ = obs::tracer_of(options.obs);
    if (metrics) {
      engine_.attach_obs(options.obs);
      network_.attach_obs(options.obs);
      c_completed_ = &metrics->counter("async.sessions.completed");
      c_rejected_ = &metrics->counter("async.sessions.rejected");
      c_backoffs_ = &metrics->counter("async.backoffs");
      g_cmax_ = &metrics->gauge("async.cmax");
      if (options.fault_plan != nullptr ||
          options.session_timeout.has_value()) {
        c_timeouts_ = &metrics->counter("async.sessions.timeout");
        c_stale_ = &metrics->counter("async.stale_messages");
      }
    }
    if (options.fault_plan != nullptr) {
      network_.set_fault_plan(options.fault_plan);
    }
    // All protocol messages ride the Transport seam as typed frames; the
    // sim backend forwards them through the same net::Network call the
    // runner used to make directly, so the event sequence is unchanged.
    transport_.set_handler(
        [this](const net::Frame& frame) { dispatch(frame); });
  }

  AsyncRunResult run() {
    // Let the kernel attach (or detach) its decision instance before the
    // event loop starts; handlers only ever call balance() after this.
    kernel_->prepare(*schedule_);
    result_.initial_makespan = schedule_->makespan();
    result_.best_makespan = result_.initial_makespan;
    const std::uint64_t migrations_before = schedule_->migrations();
    for (MachineId i = 0; i < schedule_->num_machines(); ++i) {
      schedule_wakeup(i);
    }
    // A sentinel event stops the run at the horizon even though wake-ups
    // keep regenerating work.
    engine_.schedule_at(options_.duration, [this] { engine_.stop(); });
    engine_.run();
    result_.final_makespan = schedule_->makespan();
    result_.migrations = schedule_->migrations() - migrations_before;
    result_.messages = network_.messages_sent();
    result_.end_time = engine_.now();
    result_.faults = network_.fault_stats();
    fill_risk_report(result_, *schedule_);
    return result_;
  }

 private:
  [[nodiscard]] double ts() const noexcept {
    return obs::sim_time_us(transport_.now());
  }

  /// Frames carry (type, from, to, token) — exactly the context the
  /// handlers need, so the dispatch is a pure re-labelling of the lambda
  /// captures the runner used to ship through net::Network.
  void dispatch(const net::Frame& frame) {
    switch (frame.type) {
      case net::FrameType::kRequest:
        handle_request(frame.from, frame.to, frame.token);
        return;
      case net::FrameType::kAccept:
        handle_accept(frame.to, frame.from, frame.token);
        return;
      case net::FrameType::kReject:
        handle_reject(frame.to, frame.token);
        return;
      case net::FrameType::kTransfer:
        handle_transfer(frame.from, frame.to, frame.token);
        return;
      default:
        return;  // No other frame type is ever sent here.
    }
  }

  void send_frame(net::FrameType type, MachineId from, MachineId to,
                  std::uint64_t token) {
    net::Frame frame;
    frame.type = type;
    frame.from = from;
    frame.to = to;
    frame.token = token;
    transport_.send(frame);
  }

  void message_event(const char* kind, MachineId from, MachineId to) {
    if (!tracer_) return;
    tracer_->instant(ts(), from, kind, "net.msg",
                     {{"from", static_cast<std::int64_t>(from)},
                      {"to", static_cast<std::int64_t>(to)}});
  }

  void schedule_wakeup(MachineId i) {
    const des::SimTime delay =
        rng_.exponential(1.0 / options_.mean_think_time);
    transport_.schedule_after(delay, [this, i] { try_initiate(i); });
  }

  void unlock(MachineId i) { slots_[i] = SessionSlot{}; }

  void stale_message() {
    ++result_.stale_messages;
    if (c_stale_) c_stale_->add();
  }

  /// True iff machine i is still locked in session `token`.
  [[nodiscard]] bool in_session(MachineId i, std::uint64_t token) const {
    return slots_[i].locked && slots_[i].token == token;
  }

  /// Arms the session-abandon timer for machine i (no-op when disabled).
  void arm_timeout(MachineId i, std::uint64_t token, bool initiator) {
    if (!options_.session_timeout.has_value()) return;
    // Armed against the transport's clock: virtual time here, a monotonic
    // wall-clock deadline when the same state machine runs on sockets.
    transport_.schedule_after(*options_.session_timeout,
                              [this, i, token, initiator] {
                             if (!in_session(i, token)) return;
                             unlock(i);
                             ++result_.sessions_timed_out;
                             if (c_timeouts_) c_timeouts_->add();
                             if (initiator) {
                               end_session(i, false, schedule_->makespan());
                               schedule_wakeup(i);
                             }
                           });
  }

  void try_initiate(MachineId initiator) {
    if (transport_.now() >= options_.duration) return;
    if (slots_[initiator].locked) {
      // Mid-session (as a peer); try again later.
      schedule_wakeup(initiator);
      return;
    }
    // Uniform random peer (Algorithm 7's selection).
    auto peer = static_cast<MachineId>(
        rng_.below(schedule_->num_machines() - 1));
    if (peer >= initiator) ++peer;
    const std::uint64_t token = ++next_token_;
    slots_[initiator] = SessionSlot{true, token, false};
    last_token_[initiator] = token;
    if (tracer_) {
      tracer_->begin(ts(), initiator, "session", "dist",
                     {{"peer", static_cast<std::int64_t>(peer)}});
    }
    message_event("REQUEST", initiator, peer);
    send_frame(net::FrameType::kRequest, initiator, peer, token);
    arm_timeout(initiator, token, true);
  }

  void end_session(MachineId initiator, bool completed, Cost cmax) {
    if (!tracer_) return;
    tracer_->end(ts(), initiator, "session",
                 {{"completed", completed}, {"cmax", cmax}});
  }

  void handle_request(MachineId initiator, MachineId peer,
                      std::uint64_t token) {
    if (!slots_[peer].locked && token <= last_token_[peer]) {
      // A free peer seeing a token no newer than one it already handled is
      // reading a duplicated (or hopelessly late) REQUEST: accepting it
      // would re-open a finished session, and a still-in-flight duplicate
      // TRANSFER for that token would then commit its exchange twice.
      stale_message();
      return;
    }
    if (slots_[peer].locked) {
      if (slots_[peer].token == token) {
        // Duplicate REQUEST of the session the peer already accepted.
        stale_message();
        return;
      }
      ++result_.sessions_rejected;
      if (c_rejected_) c_rejected_->add();
      message_event("REJECT", peer, initiator);
      send_frame(net::FrameType::kReject, peer, initiator, token);
      return;
    }
    slots_[peer] = SessionSlot{true, token, false};
    last_token_[peer] = std::max(last_token_[peer], token);
    arm_timeout(peer, token, false);
    // ACCEPT carries the peer's job list back to the initiator; the kernel
    // then computes the split and the TRANSFER ships the moved jobs. Both
    // steps cost one message each; the state mutation happens at transfer
    // delivery time (both machines stay locked meanwhile).
    message_event("ACCEPT", peer, initiator);
    send_frame(net::FrameType::kAccept, peer, initiator, token);
  }

  void handle_reject(MachineId initiator, std::uint64_t token) {
    if (!in_session(initiator, token) ||
        slots_[initiator].transfer_pending) {
      stale_message();
      return;
    }
    unlock(initiator);
    end_session(initiator, false, schedule_->makespan());
    if (c_backoffs_) c_backoffs_->add();
    transport_.schedule_after(
        rng_.uniform(0.0, options_.reject_backoff),
        [this, initiator] { try_initiate(initiator); });
  }

  void handle_accept(MachineId initiator, MachineId peer,
                     std::uint64_t token) {
    if (!in_session(initiator, token) ||
        slots_[initiator].transfer_pending) {
      // The initiator gave up (timeout) or this ACCEPT is a duplicate; the
      // peer stays locked until its own timer releases it.
      stale_message();
      return;
    }
    slots_[initiator].transfer_pending = true;
    message_event("TRANSFER", initiator, peer);
    send_frame(net::FrameType::kTransfer, initiator, peer, token);
  }

  void handle_transfer(MachineId initiator, MachineId peer,
                       std::uint64_t token) {
    if (!in_session(peer, token)) {
      // The peer abandoned the session; abort the initiator's half too so
      // it does not wait for a completion that can no longer happen.
      stale_message();
      if (in_session(initiator, token) &&
          slots_[initiator].transfer_pending) {
        unlock(initiator);
        end_session(initiator, false, schedule_->makespan());
        schedule_wakeup(initiator);
      }
      return;
    }
    kernel_->balance(*schedule_, initiator, peer);
    ++result_.exchanges;
    const Cost cmax = schedule_->makespan();
    result_.best_makespan = std::min(result_.best_makespan, cmax);
    if (options_.record_trace) {
      result_.trace.push_back({.makespan = cmax, .time = transport_.now()});
    }
    if (c_completed_) {
      c_completed_->add();
      g_cmax_->set(cmax);
    }
    unlock(peer);
    if (in_session(initiator, token)) {
      unlock(initiator);
      end_session(initiator, true, cmax);
      schedule_wakeup(initiator);
    }
  }

  Schedule* schedule_;
  const pairwise::PairKernel* kernel_;
  AsyncOptions options_;
  stats::Rng rng_;
  des::Engine engine_;
  net::Network network_;
  net::SimTransport transport_;
  std::vector<SessionSlot> slots_;
  /// Highest session token each machine has ever been locked with; a free
  /// machine treats a REQUEST at or below this as stale (see
  /// handle_request) so duplicated requests cannot resurrect a session.
  std::vector<std::uint64_t> last_token_;
  std::uint64_t next_token_ = 0;
  AsyncRunResult result_;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_rejected_ = nullptr;
  obs::Counter* c_backoffs_ = nullptr;
  obs::Counter* c_timeouts_ = nullptr;
  obs::Counter* c_stale_ = nullptr;
  obs::Gauge* g_cmax_ = nullptr;
};

}  // namespace

AsyncRunResult run_async(Schedule& schedule,
                         const pairwise::PairKernel& kernel,
                         const AsyncOptions& options) {
  return AsyncSimulation(schedule, kernel, options).run();
}

}  // namespace dlb::dist
