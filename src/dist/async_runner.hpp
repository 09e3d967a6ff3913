#pragma once

// Asynchronous decentralized balancing: the pairwise exchange protocol run
// as actual concurrent machines over a simulated network, instead of the
// sequential random-pair abstraction of ExchangeEngine. Each machine
// periodically initiates a balancing *session*:
//
//   initiator --REQUEST--> peer
//   peer: busy in another session?  --REJECT--> initiator retries later
//         otherwise lock both sides --ACCEPT--> initiator
//   initiator runs the pair kernel, ships the moved jobs --TRANSFER-->,
//   both sides unlock.
//
// Locking makes each session's view consistent; rejections and latency are
// where this model differs from (and degrades against) the paper's
// sequential abstraction — bench/ext_async_latency quantifies that gap.
//
// Every protocol message carries its session's token, so deliveries that
// arrive out of context (duplicates, reordered stragglers — see
// net/fault.hpp) are recognised as stale and ignored instead of corrupting
// the lock state. Messages travel as net::Frame through the Transport
// seam and every timer (session timeout, wake-up, backoff) is armed via
// Transport::schedule_after against its Clock — virtual time on the DES
// backend here, a monotonic wall-clock deadline when the state machine
// runs on sockets (net/clock.hpp). An optional session timeout releases
// machines whose
// session lost a message to a drop fault; without it a dropped message
// parks both participants until the horizon (the run still terminates and
// no job is ever lost either way — the schedule only mutates atomically at
// TRANSFER delivery).

#include <cstdint>
#include <optional>
#include <vector>

#include "core/schedule.hpp"
#include "dist/run_report.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
#include "pairwise/pair_kernel.hpp"
#include "stats/rng.hpp"

namespace dlb::dist {

struct AsyncOptions {
  /// Mean think time between a machine's session attempts (exponential).
  des::SimTime mean_think_time = 1.0;
  /// Per-message network latency model parameters (constant model).
  des::SimTime message_latency = 0.1;
  /// Stop the simulation at this virtual time.
  des::SimTime duration = 100.0;
  /// Backoff after a rejected request (uniform in [0, backoff)).
  des::SimTime reject_backoff = 1.0;
  /// When set (must be > 0): a machine still locked in the same session
  /// after this long abandons it (the initiator also schedules its next
  /// attempt). Keeps the protocol live under message-drop faults; unset
  /// disables the timers entirely, preserving the exact fault-free event
  /// sequence.
  std::optional<des::SimTime> session_timeout;
  /// Optional seeded fault injection on every message (must outlive the
  /// run; null = reliable network).
  const net::FaultPlan* fault_plan = nullptr;
  std::uint64_t seed = 1;
  /// Fill RunReport::trace: (time, makespan) after every completed session.
  bool record_trace = false;
  /// Optional observability sinks (must outlive the run). Counters:
  /// async.sessions.completed / .rejected / .timeout, async.backoffs,
  /// async.stale_messages, net.messages, net.faults.*, des.events; tracer
  /// spans "session" plus REQUEST/ACCEPT/REJECT/TRANSFER instants on the
  /// virtual DES clock (1 sim time unit = 1 second).
  const obs::Context* obs = nullptr;
};

/// Shared fields live on the RunReport base: `exchanges` counts completed
/// balancing sessions (comparable to the sequential engine's exchanges),
/// `converged` stays false — the async protocol never certifies stability.
struct AsyncRunResult : RunReport {
  std::uint64_t sessions_rejected = 0;
  /// Sessions abandoned by the timeout timer (only with session_timeout).
  std::uint64_t sessions_timed_out = 0;
  /// Deliveries ignored because their session token was no longer current
  /// (duplicate / reordered / post-timeout messages).
  std::uint64_t stale_messages = 0;
  std::uint64_t messages = 0;
  des::SimTime end_time = 0.0;
  /// Faults the attached plan injected (all zero without a plan).
  net::FaultStats faults;
};

/// Runs the asynchronous protocol on `schedule` in place until
/// options.duration of simulated time has passed.
AsyncRunResult run_async(Schedule& schedule, const pairwise::PairKernel& kernel,
                         const AsyncOptions& options);

}  // namespace dlb::dist
