#include "dist/transport_runner.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <ranges>
#include <stdexcept>
#include <string>
#include <utility>

#include "stats/rng.hpp"

namespace dlb::dist {

namespace {

// Domain-separation tags for the plan's rng streams: the round
// permutations and the peer draws must be independent of each other and
// of every other stream the seed feeds.
constexpr std::uint64_t kRoundStreamTag = 0x0D15B0A7ULL;
constexpr std::uint64_t kPeerStreamTag = 0x0D15BEE2ULL;

// Token/TOKEN_ACK chains carry a session *index* in their token field, so
// without a salt their trace ids would collide with the session whose
// token value matches. Domain-separate them.
constexpr std::uint64_t kTokenTraceTag = 0x0D15707EULL;

// A payload job list is usable only when it is strictly ascending (the
// merge diff and the move extraction rely on it) and names real jobs.
bool is_job_list(const std::vector<JobId>& jobs, std::size_t num_jobs) {
  return std::adjacent_find(jobs.begin(), jobs.end(),
                            std::greater_equal<>()) == jobs.end() &&
         (jobs.empty() || jobs.back() < num_jobs);
}

// Two ascending lists share no job.
bool disjoint(const std::vector<JobId>& a, const std::vector<JobId>& b) {
  auto x = a.begin();
  auto y = b.begin();
  while (x != a.end() && y != b.end()) {
    if (*x == *y) return false;
    if (*x < *y) {
      ++x;
    } else {
      ++y;
    }
  }
  return true;
}

}  // namespace

std::vector<MachineId> TransportRunner::round_order(std::uint64_t seed,
                                                    std::size_t machines,
                                                    std::uint64_t round) {
  std::vector<MachineId> order(machines);
  std::iota(order.begin(), order.end(), MachineId{0});
  stats::Rng rng = stats::Rng::stream(seed ^ kRoundStreamTag, round);
  stats::shuffle(order.begin(), order.end(), rng);
  return order;
}

MachineId TransportRunner::initiator_of(std::uint64_t seed,
                                        std::size_t machines,
                                        std::uint64_t token) {
  const std::uint64_t round = token / machines;
  return round_order(seed, machines, round)[token % machines];
}

MachineId TransportRunner::peer_of(std::uint64_t seed, std::size_t machines,
                                   std::uint64_t token,
                                   MachineId initiator) {
  stats::Rng rng = stats::Rng::stream(seed ^ kPeerStreamTag, token);
  const auto draw =
      static_cast<MachineId>(rng.below(static_cast<std::uint64_t>(
          machines - 1)));
  return draw >= initiator ? draw + 1 : draw;
}

TransportRunner::TransportRunner(Schedule& replica,
                                 net::Transport& transport,
                                 TransportRunnerOptions options)
    : replica_(&replica),
      transport_(&transport),
      options_(std::move(options)) {
  if (options_.kernel == nullptr) {
    throw std::invalid_argument("TransportRunner: kernel is required");
  }
  // Decision-instance hook: risk-aware kernels attach their surrogate to
  // the replica once, before any session calls balance(). Every daemon
  // derives the same surrogate from the same instance, so replicas agree.
  options_.kernel->prepare(*replica_);
  if (replica.num_machines() != transport.num_machines()) {
    throw std::invalid_argument(
        "TransportRunner: replica and transport disagree on machines");
  }
  total_ = total_sessions(replica.num_machines(), options_.rounds);
  local_.assign(replica.num_machines(), 0);
  for (const MachineId machine : transport.local_machines()) {
    local_[machine] = 1;
  }
  dead_.assign(replica.num_machines(), 0);

  if (obs::Metrics* metrics = obs::metrics_of(options_.obs)) {
    c_sessions_ = &metrics->counter("dist.transport.sessions");
    c_exchanges_ = &metrics->counter("dist.transport.exchanges");
    c_migrations_ = &metrics->counter("dist.transport.migrations");
    c_transfers_sent_ = &metrics->counter("dist.transport.transfers_sent");
    c_transfers_applied_ =
        &metrics->counter("dist.transport.transfers_applied");
    c_retries_ = &metrics->counter("dist.transport.retries");
    c_duplicates_ = &metrics->counter("dist.transport.duplicates");
    c_frames_sent_ = &metrics->counter("dist.transport.frames_sent");
    c_bad_payloads_ = &metrics->counter("dist.transport.bad_payloads");
  }
  tracer_ = obs::tracer_of(options_.obs);
  flight_ = obs::flight_of(options_.obs);

  transport_->set_handler(
      [this](const net::Frame& frame) { handle_frame(frame); });
}

bool TransportRunner::is_local(MachineId machine) const noexcept {
  return machine < local_.size() && local_[machine] != 0;
}

MachineId TransportRunner::plan_initiator(std::uint64_t token) const {
  const std::size_t machines = replica_->num_machines();
  const std::uint64_t round = token / machines;
  if (round != cached_round_) {
    cached_order_ = round_order(options_.seed, machines, round);
    cached_round_ = round;
  }
  return cached_order_[token % machines];
}

Cost TransportRunner::canonical_load(MachineId machine) const {
  return load_of(machine, sorted_jobs(machine));
}

Cost TransportRunner::load_of(MachineId machine,
                              const std::vector<JobId>& sorted) const {
  Cost load = 0.0;
  for (const JobId job : sorted) {
    load += replica_->instance().cost(machine, job);
  }
  return load;
}

std::vector<JobId> TransportRunner::sorted_jobs(MachineId machine) const {
  return sorted_jobs_on(*replica_, machine);
}

void TransportRunner::start() {
  if (tracer_) {
    // The skew anchor of the cluster trace merger: every daemon emits
    // READY right after its mesh handshake, so per-process clock streams
    // can be aligned on it (docs/cluster-observability.md).
    const MachineId self = transport_->local_machines().empty()
                               ? 0
                               : transport_->local_machines().front();
    tracer_->instant(transport_->now() * 1e6, self, "READY", "dist.session",
                     {{"seed", static_cast<std::int64_t>(options_.seed)},
                      {"total", static_cast<std::int64_t>(total_)}});
  }
  if (total_ == 0) {
    done_ = true;
    watermark_ = 0;
    return;
  }
  if (is_local(plan_initiator(0))) {
    start_session(0);
  }
}

void TransportRunner::run_to_completion(std::size_t max_steps) {
  std::size_t steps = 0;
  while (!done_) {
    if (steps++ >= max_steps) {
      throw std::runtime_error(
          "TransportRunner: step budget exhausted before completion");
    }
    if (poll(0.1) == 0 && !done_) {
      throw std::runtime_error(
          "TransportRunner: transport idle but protocol unfinished "
          "(watermark " +
          std::to_string(watermark_) + " of " + std::to_string(total_) +
          ")");
    }
  }
}

std::uint64_t TransportRunner::frame_trace_id(
    const net::Frame& frame) const noexcept {
  const bool token_chain = frame.type == net::FrameType::kToken ||
                           frame.type == net::FrameType::kTokenAck;
  const std::uint64_t domain =
      token_chain ? options_.seed ^ kTokenTraceTag : options_.seed;
  return obs::derive_trace_id(domain, frame.token);
}

void TransportRunner::send_frame(net::Frame frame) {
  // Stamp causal metadata on the outgoing copy: both endpoints derive
  // the same trace id from (seed, token), and the Lamport stamp makes
  // per-session frame order reconstructible after the fact. Stored
  // frames (outstanding_, answer_) stay unstamped, so a retransmission
  // is a fresh causal event with a fresh stamp.
  frame.trace = frame_trace_id(frame);
  frame.lclock = lamport_.tick();
  ++counters_.frames_sent;
  if (c_frames_sent_) c_frames_sent_->add();
  if (tracer_) {
    tracer_->instant(
        transport_->now() * 1e6, frame.from,
        std::string("SEND ") + net::frame_type_name(frame.type),
        "net.frame",
        {{"trace", static_cast<std::int64_t>(frame.trace)},
         {"lclock", static_cast<std::int64_t>(frame.lclock)},
         {"token", static_cast<std::int64_t>(frame.token)},
         {"peer", static_cast<std::int64_t>(frame.to)}});
  }
  transport_->send(frame);
}

void TransportRunner::arm_retry() {
  const std::uint64_t generation = ++timer_generation_;
  transport_->schedule_after(options_.retry_timeout, [this, generation] {
    on_retry(generation);
  });
}

void TransportRunner::on_retry(std::uint64_t generation) {
  if (generation != timer_generation_ || done_) return;
  ++counters_.retries;
  if (c_retries_) c_retries_->add();
  switch (phase_) {
    case Phase::kIdle:
      return;
    case Phase::kAwaitAccept:
    case Phase::kAwaitDone:
      send_frame(outstanding_);
      if (phase_ == Phase::kAwaitDone) {
        ++counters_.transfers_sent;
        if (c_transfers_sent_) c_transfers_sent_->add();
      }
      break;
    case Phase::kAwaitTokenAck:
      // The target may have died since the pass; reroute around it.
      if (is_dead(outstanding_.to)) {
        advance_token(outstanding_.token);
        return;
      }
      send_frame(outstanding_);
      break;
    case Phase::kFinishing:
      for (const MachineId target : finish_unacked_) {
        net::Frame finish;
        finish.type = net::FrameType::kToken;
        finish.from = transport_->local_machines().front();
        finish.to = target;
        finish.token = total_;
        send_frame(finish);
      }
      break;
  }
  arm_retry();
}

void TransportRunner::start_session(std::uint64_t token) {
  const MachineId initiator = plan_initiator(token);
  const MachineId peer =
      peer_of(options_.seed, replica_->num_machines(), token, initiator);
  active_ = token;
  active_initiator_ = initiator;
  active_peer_ = peer;
  watermark_ = std::max(watermark_, token);
  ++counters_.sessions_initiated;
  if (c_sessions_) c_sessions_->add();
  if (tracer_) {
    // The session span lives on the initiator's track; every code path
    // out of a session funnels through complete_session, so begin/end
    // always pair (the merger asserts zero orphans on this).
    tracer_->begin(
        transport_->now() * 1e6, initiator, "session", "dist.session",
        {{"trace", static_cast<std::int64_t>(
              obs::derive_trace_id(options_.seed, token))},
         {"token", static_cast<std::int64_t>(token)},
         {"peer", static_cast<std::int64_t>(peer)}});
  }
  if (is_dead(peer)) {
    // The peer is gone for good: the session runs moveless so the token
    // keeps moving. Every runner skips it the same way, so the plan
    // stays globally agreed. A peer that is merely unreachable (link
    // still dialing, or flapped) must NOT be skipped — the REQUEST is
    // dropped on the floor and the retry timer resends it until the
    // link is up or the operator marks the peer dead. Skipping on
    // transient reachability would let wall-clock timing change the
    // converged schedule.
    complete_session(token);
    return;
  }
  net::Frame request;
  request.type = net::FrameType::kRequest;
  request.from = initiator;
  request.to = peer;
  request.token = token;
  phase_ = Phase::kAwaitAccept;
  outstanding_ = request;
  send_frame(request);
  arm_retry();
}

void TransportRunner::complete_session(std::uint64_t token) {
  ++counters_.sessions_completed;
  ++timer_generation_;  // Invalidate the phase's retransmit timer.
  if (tracer_) {
    tracer_->end(transport_->now() * 1e6, active_initiator_, "session",
                 {{"trace", static_cast<std::int64_t>(
                       obs::derive_trace_id(options_.seed, token))},
                  {"token", static_cast<std::int64_t>(token)}});
  }
  phase_ = Phase::kIdle;
  active_ = kNoToken;
  watermark_ = std::max(watermark_, token + 1);
  record_flight_rounds();
  advance_token(token + 1);
}

void TransportRunner::advance_token(std::uint64_t token) {
  std::uint64_t next = token;
  while (next < total_ && is_dead(plan_initiator(next))) ++next;
  if (next >= total_) {
    begin_finish_broadcast();
    return;
  }
  const MachineId initiator = plan_initiator(next);
  if (is_local(initiator)) {
    start_session(next);
    return;
  }
  net::Frame pass;
  pass.type = net::FrameType::kToken;
  pass.from = transport_->local_machines().front();
  pass.to = initiator;
  pass.token = next;
  phase_ = Phase::kAwaitTokenAck;
  outstanding_ = pass;
  send_frame(pass);
  arm_retry();
}

void TransportRunner::begin_finish_broadcast() {
  watermark_ = total_;
  record_flight_rounds();
  finish_unacked_.clear();
  for (MachineId machine = 0; machine < local_.size(); ++machine) {
    if (!is_local(machine) && !is_dead(machine)) {
      finish_unacked_.push_back(machine);
    }
  }
  if (finish_unacked_.empty()) {
    ++timer_generation_;
    phase_ = Phase::kIdle;
    done_ = true;
    return;
  }
  phase_ = Phase::kFinishing;
  for (const MachineId target : finish_unacked_) {
    net::Frame finish;
    finish.type = net::FrameType::kToken;
    finish.from = transport_->local_machines().front();
    finish.to = target;
    finish.token = total_;
    send_frame(finish);
  }
  arm_retry();
}

void TransportRunner::resync_peer_row(
    MachineId peer, const std::vector<JobId>& authoritative) {
  // Diff, not rebuild: only mismatched jobs are touched, so the
  // loopback case (initiator and peer share this replica) is a no-op
  // and never perturbs load accumulators. Both lists are ascending, so
  // one merge walk finds the stale jobs; they leave first, in ascending
  // id, and the missing ones arrive after, in ascending id.
  auto want = authoritative.begin();
  for (const JobId job : sorted_jobs(peer)) {
    while (want != authoritative.end() && *want < job) ++want;
    if (want == authoritative.end() || *want != job) replica_->unassign(job);
  }
  for (const JobId job : authoritative) replica_->move(job, peer);
}

void TransportRunner::record_flight_rounds() {
  if (flight_ == nullptr) return;
  const std::size_t machines = replica_->num_machines();
  if (machines == 0) return;
  // watermark_ = first unfinished session index, so watermark_ / machines
  // counts the protocol rounds known fully complete.
  const std::uint64_t complete =
      std::min<std::uint64_t>(watermark_ / machines, options_.rounds);
  while (flight_round_ < complete) {
    obs::FlightSample sample;
    sample.round = flight_round_;
    obs::sample_loads(
        sample, *replica_,
        std::views::iota(MachineId{0}, static_cast<MachineId>(machines)) |
            std::views::filter([&](MachineId m) { return !is_dead(m); }));
    sample.exchanges = counters_.exchanges;
    sample.migrations = counters_.migrations;
    sample.frames = counters_.frames_sent;
    sample.retries = counters_.retries;
    flight_->record(sample);
    ++flight_round_;
  }
}

void TransportRunner::handle_frame(const net::Frame& frame) {
  if (frame.type != net::FrameType::kHello) {
    lamport_.observe(frame.lclock);
    if (tracer_) {
      tracer_->instant(
          transport_->now() * 1e6, frame.to,
          std::string("RECV ") + net::frame_type_name(frame.type),
          "net.frame",
          {{"trace", static_cast<std::int64_t>(frame.trace)},
           {"lclock", static_cast<std::int64_t>(frame.lclock)},
           {"token", static_cast<std::int64_t>(frame.token)},
           {"peer", static_cast<std::int64_t>(frame.from)},
           {"at", static_cast<std::int64_t>(lamport_.now())}});
    }
  }
  switch (frame.type) {
    case net::FrameType::kRequest:
      handle_request(frame);
      return;
    case net::FrameType::kAccept:
      handle_accept(frame);
      return;
    case net::FrameType::kReject:
      handle_reject(frame);
      return;
    case net::FrameType::kTransfer:
      handle_transfer(frame);
      return;
    case net::FrameType::kDone:
      handle_done(frame);
      return;
    case net::FrameType::kToken:
      handle_token(frame);
      return;
    case net::FrameType::kTokenAck:
      handle_token_ack(frame);
      return;
    case net::FrameType::kHello:
      return;  // Transport-level; nothing to do here.
  }
}

void TransportRunner::handle_request(const net::Frame& frame) {
  const std::uint64_t token = frame.token;
  if (answered_ != kNoToken && token == answered_) {
    // The reply was lost; repeat it verbatim (recomputing could
    // disagree with what the initiator already acted on).
    ++counters_.duplicates_ignored;
    if (c_duplicates_) c_duplicates_->add();
    send_frame(answer_);
    return;
  }
  if (answered_ != kNoToken && token < answered_) {
    ++counters_.duplicates_ignored;
    if (c_duplicates_) c_duplicates_->add();
    return;
  }
  watermark_ = std::max(watermark_, token);
  record_flight_rounds();
  net::Frame reply;
  reply.from = frame.to;
  reply.to = frame.from;
  reply.token = token;
  if (draining_) {
    reply.type = net::FrameType::kReject;
  } else {
    reply.type = net::FrameType::kAccept;
    reply.payload = net::encode_jobs(sorted_jobs(frame.to));
  }
  answered_ = token;
  answer_ = reply;
  send_frame(reply);
}

void TransportRunner::handle_accept(const net::Frame& frame) {
  if (phase_ != Phase::kAwaitAccept || frame.token != active_) {
    ++counters_.duplicates_ignored;
    if (c_duplicates_) c_duplicates_->add();
    return;
  }
  const MachineId initiator = active_initiator_;
  const MachineId peer = active_peer_;
  std::vector<JobId> before_peer;
  try {
    before_peer = net::decode_jobs(frame.payload);
  } catch (const net::FrameError&) {
    drop_bad_payload();
    return;
  }
  if (!is_job_list(before_peer, replica_->num_jobs())) {
    drop_bad_payload();
    return;
  }
  // After the resync the peer's row is exactly the decoded list, so the
  // initiator's row is the only one left to sort. Only the two pair loads
  // are recomputed canonically (ascending job id), so the kernel never
  // sees accumulation-order ULP drift.
  resync_peer_row(peer, before_peer);
  const std::vector<JobId> before_initiator = sorted_jobs(initiator);
  replica_->restore_load(initiator, load_of(initiator, before_initiator));
  replica_->restore_load(peer, load_of(peer, before_peer));
  const bool changed =
      options_.kernel->balance(*replica_, initiator, peer);

  // The kernel only swaps jobs within the pair, so the jobs that changed
  // sides are read off the ascending "before" rows, ascending already.
  net::TransferMoves moves;
  if (changed) {
    for (const JobId job : before_peer) {
      if (replica_->machine_of(job) == initiator) {
        moves.to_initiator.push_back(job);
      }
    }
    for (const JobId job : before_initiator) {
      if (replica_->machine_of(job) == peer) moves.to_peer.push_back(job);
    }
  }
  if (moves.total() == 0) {
    // Nothing moved: no TRANSFER round trip needed, the session is done.
    complete_session(frame.token);
    return;
  }
  ++counters_.exchanges;
  counters_.migrations += moves.total();
  if (c_exchanges_) c_exchanges_->add();
  if (c_migrations_) c_migrations_->add(moves.total());
  if (tracer_) {
    tracer_->instant(transport_->now() * 1e6, initiator, "EXCHANGE",
                     "dist.transport",
                     {{"token", static_cast<std::int64_t>(frame.token)},
                      {"peer", static_cast<std::int64_t>(peer)},
                      {"moves",
                       static_cast<std::int64_t>(moves.total())}});
  }
  net::Frame transfer;
  transfer.type = net::FrameType::kTransfer;
  transfer.from = initiator;
  transfer.to = peer;
  transfer.token = frame.token;
  transfer.payload = net::encode_moves(moves);
  phase_ = Phase::kAwaitDone;
  outstanding_ = transfer;
  ++counters_.transfers_sent;
  if (c_transfers_sent_) c_transfers_sent_->add();
  send_frame(transfer);
  arm_retry();
}

void TransportRunner::handle_reject(const net::Frame& frame) {
  if (phase_ != Phase::kAwaitAccept || frame.token != active_) {
    ++counters_.duplicates_ignored;
    if (c_duplicates_) c_duplicates_->add();
    return;
  }
  complete_session(frame.token);
}

void TransportRunner::handle_transfer(const net::Frame& frame) {
  const std::uint64_t token = frame.token;
  if (applied_ != kNoToken && token <= applied_) {
    // Already applied: the DONE was lost, repeat it. Never re-apply —
    // that is the double-commit the chaos smoke hunts for.
    ++counters_.duplicates_ignored;
    if (c_duplicates_) c_duplicates_->add();
    if (token == applied_) {
      net::Frame ack;
      ack.type = net::FrameType::kDone;
      ack.from = frame.to;
      ack.to = frame.from;
      ack.token = token;
      send_frame(ack);
    }
    return;
  }
  if (token != answered_) {
    ++counters_.duplicates_ignored;
    if (c_duplicates_) c_duplicates_->add();
    return;
  }
  if (!is_local(frame.from)) {
    // A loopback session's moves were already applied by the kernel on
    // this very replica; only apply when the initiator is remote.
    net::TransferMoves moves;
    try {
      moves = net::decode_moves(frame.payload);
    } catch (const net::FrameError&) {
      drop_bad_payload();
      return;
    }
    if (!is_transfer_for(frame, moves)) {
      drop_bad_payload();
      return;
    }
    for (const JobId job : moves.to_initiator) {
      replica_->move(job, frame.from);
    }
    for (const JobId job : moves.to_peer) {
      replica_->move(job, frame.to);
    }
  }
  applied_ = token;
  watermark_ = std::max(watermark_, token + 1);
  record_flight_rounds();
  ++counters_.transfers_applied;
  if (c_transfers_applied_) c_transfers_applied_->add();
  net::Frame ack;
  ack.type = net::FrameType::kDone;
  ack.from = frame.to;
  ack.to = frame.from;
  ack.token = token;
  send_frame(ack);
}

bool TransportRunner::is_transfer_for(const net::Frame& frame,
                                      const net::TransferMoves& moves) const {
  const std::size_t num_jobs = replica_->num_jobs();
  if (frame.from >= replica_->num_machines() ||
      !is_job_list(moves.to_initiator, num_jobs) ||
      !is_job_list(moves.to_peer, num_jobs) ||
      !disjoint(moves.to_initiator, moves.to_peer)) {
    return false;
  }
  // Jobs leaving the receiver come from its own authoritative row.
  return std::all_of(moves.to_initiator.begin(), moves.to_initiator.end(),
                     [&](JobId job) {
                       return replica_->machine_of(job) == frame.to;
                     });
}

void TransportRunner::drop_bad_payload() {
  // The sender's retry timer resends the frame; a well-formed copy still
  // completes the session.
  ++counters_.bad_payloads;
  if (c_bad_payloads_) c_bad_payloads_->add();
}

void TransportRunner::handle_done(const net::Frame& frame) {
  if (phase_ != Phase::kAwaitDone || frame.token != active_) {
    ++counters_.duplicates_ignored;
    if (c_duplicates_) c_duplicates_->add();
    return;
  }
  complete_session(frame.token);
}

void TransportRunner::handle_token(const net::Frame& frame) {
  const std::uint64_t token = frame.token;
  if (phase_ == Phase::kAwaitTokenAck && token > outstanding_.token) {
    // A token higher than our outstanding pass proves the pass landed
    // (the plan is serialized), even if its TOKEN_ACK is still in
    // flight or lost: count it as the ack so we can act on this one.
    ++timer_generation_;
    phase_ = Phase::kIdle;
  }
  net::Frame ack;
  ack.type = net::FrameType::kTokenAck;
  ack.from = frame.to;
  ack.to = frame.from;
  ack.token = token;
  send_frame(ack);
  if (token >= total_) {
    watermark_ = total_;
    record_flight_rounds();
    done_ = true;
    return;
  }
  if (phase_ != Phase::kIdle || done_) return;
  if (active_ != kNoToken || token < watermark_) return;
  if (!is_local(plan_initiator(token))) return;
  start_session(token);
}

void TransportRunner::handle_token_ack(const net::Frame& frame) {
  if (phase_ == Phase::kAwaitTokenAck &&
      frame.token == outstanding_.token && frame.from == outstanding_.to) {
    ++timer_generation_;
    phase_ = Phase::kIdle;
    return;
  }
  if (phase_ == Phase::kFinishing && frame.token == total_) {
    finish_unacked_.erase(std::remove(finish_unacked_.begin(),
                                      finish_unacked_.end(), frame.from),
                          finish_unacked_.end());
    if (finish_unacked_.empty()) {
      ++timer_generation_;
      phase_ = Phase::kIdle;
      done_ = true;
    }
    return;
  }
  ++counters_.duplicates_ignored;
  if (c_duplicates_) c_duplicates_->add();
}

void TransportRunner::mark_dead(MachineId machine) {
  if (machine >= dead_.size() || dead_[machine] != 0) return;
  dead_[machine] = 1;
  if (phase_ == Phase::kAwaitAccept && machine == active_peer_) {
    // The kernel never ran: finish moveless.
    complete_session(active_);
    return;
  }
  if (phase_ == Phase::kAwaitDone && machine == active_peer_) {
    // The moves are already in this replica (and the peer's copy died
    // with it); the session's outcome is durable here, so finish.
    complete_session(active_);
    return;
  }
  if (phase_ == Phase::kAwaitTokenAck && machine == outstanding_.to) {
    advance_token(outstanding_.token);
    return;
  }
  if (phase_ == Phase::kFinishing) {
    finish_unacked_.erase(std::remove(finish_unacked_.begin(),
                                      finish_unacked_.end(), machine),
                          finish_unacked_.end());
    if (finish_unacked_.empty()) {
      ++timer_generation_;
      phase_ = Phase::kIdle;
      done_ = true;
    }
  }
}

void TransportRunner::adopt(const std::vector<JobId>& jobs,
                            MachineId onto) {
  if (!is_local(onto)) {
    throw std::invalid_argument(
        "TransportRunner: adopt target must be a local machine");
  }
  for (const JobId job : jobs) replica_->move(job, onto);
  replica_->restore_load(onto, canonical_load(onto));
}

void TransportRunner::inject_token(std::uint64_t token) {
  if (done_ || phase_ != Phase::kIdle || active_ != kNoToken) return;
  if (token < watermark_) token = watermark_;
  advance_token(token);
}

}  // namespace dlb::dist
