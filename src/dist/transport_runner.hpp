#pragma once

// TransportRunner: the distributed balancing protocol written against the
// net::Transport seam, so the identical state machine drives a simulated
// cluster (SimTransport, one runner hosting every machine) and a live one
// (SocketTransport, one runner per OS process).
//
// The protocol is *token-serialized lockstep*: sessions run one at a time
// in a global order that is a pure function of (seed, machines, rounds) —
// round r visits the machines in a seeded permutation, and each visited
// machine initiates one pairwise exchange with a seeded peer. A session
// is REQUEST -> ACCEPT(peer's job list) -> TRANSFER(moves) -> DONE, after
// which the finishing initiator passes a TOKEN to the next initiator
// (TOKEN_ACK'd). Every wait retransmits on a Clock deadline and every
// receipt is deduplicated by session token, so dropped / delayed /
// duplicated / reordered frames (the chaos proxy) change *when* frames
// fly but never *what* the final assignment is. That makes the outcome —
// final job sets, canonical loads, migration count — bitwise identical
// across the simulated backend, the socket backend, and any chaos plan:
// the property the CI differential gate asserts.
//
// Replicas: every runner holds a full Schedule replica built from the
// same (instance, initial assignment); only its local machines' rows are
// authoritative. An ACCEPT carries the peer's authoritative job list,
// sorted by the responder, and the initiator resyncs its replica of that
// one row with an ordered merge diff against its own sorted copy of it:
// stale jobs leave in ascending id, then missing jobs arrive in ascending
// id. The initiator then sorts its own row once, and the two pair loads
// (and only those) are overwritten with canonical sums in ascending job
// id over those two sorted rows, so kernel decisions never see
// accumulation-order ULP drift. The kernel's moves are read off the same
// two "before" rows and ship back in the TRANSFER. Per session that is
// three sorts of ~jobs/machines ids (the responder's row, the
// initiator's replica of it, the initiator's row) and no O(machines)
// work.
//
// Payload validation: a decoded ACCEPT or TRANSFER job list must be
// strictly ascending with every id < num_jobs; the two TRANSFER lists
// must be disjoint, the sender must be a machine, and before a remote
// TRANSFER is applied every to_initiator job must sit on the receiving
// machine. A payload that fails these checks, or fails to decode, is
// dropped and counted in Counters::bad_payloads (metric
// dist.transport.bad_payloads); the initiator's retry timer resends.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/schedule.hpp"
#include "core/types.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "pairwise/pair_kernel.hpp"

namespace dlb::dist {

struct TransportRunnerOptions {
  /// The exchange primitive every session runs. Required; must outlive
  /// the runner.
  const pairwise::PairKernel* kernel = nullptr;
  /// Seed of the session plan (round orders + peer choices). Every
  /// runner of a deployment must use the same seed.
  std::uint64_t seed = 1;
  /// Rounds of the plan: every machine initiates once per round.
  std::size_t rounds = 1;
  /// Retransmission deadline in clock() seconds for every awaited reply.
  double retry_timeout = 0.5;
  /// Optional observability sinks (must outlive the runner).
  const obs::Context* obs = nullptr;
};

class TransportRunner {
 public:
  static constexpr std::uint64_t kNoToken = ~std::uint64_t{0};

  /// Binds the protocol to a replica and a transport (both must outlive
  /// the runner; the runner installs itself as the transport's handler).
  TransportRunner(Schedule& replica, net::Transport& transport,
                  TransportRunnerOptions options);

  // ----- the session plan: pure functions of (seed, machines, rounds) --

  [[nodiscard]] static std::uint64_t total_sessions(
      std::size_t machines, std::size_t rounds) noexcept {
    return machines < 2 ? 0 : machines * rounds;
  }
  /// The machines of round r in initiation order (seeded permutation).
  [[nodiscard]] static std::vector<MachineId> round_order(
      std::uint64_t seed, std::size_t machines, std::uint64_t round);
  [[nodiscard]] static MachineId initiator_of(std::uint64_t seed,
                                              std::size_t machines,
                                              std::uint64_t token);
  [[nodiscard]] static MachineId peer_of(std::uint64_t seed,
                                         std::size_t machines,
                                         std::uint64_t token,
                                         MachineId initiator);

  // ----- driving ------------------------------------------------------

  /// Starts the protocol: if session 0's initiator is local, it fires
  /// immediately; otherwise the runner idles until a TOKEN arrives.
  void start();

  /// One transport pump (frames, timers). Returns processed count.
  std::size_t poll(double max_wait) { return transport_->poll(max_wait); }

  /// True once this runner has learned the whole plan finished (it ran
  /// the final session and collected finish acks, or received the finish
  /// token). A done runner keeps answering duplicates while polled.
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Polls until done; throws std::runtime_error if the transport goes
  /// idle while the protocol still has work (a stall — only possible if
  /// a peer vanished without mark_dead) or `max_steps` is exhausted.
  void run_to_completion(std::size_t max_steps = 10'000'000);

  // ----- elasticity hooks (the daemon's command channel) ---------------

  /// A draining runner REJECTs new incoming REQUESTs; sessions it
  /// initiates itself still run (the token must keep moving).
  void set_draining(bool draining) noexcept { draining_ = draining; }
  [[nodiscard]] bool draining() const noexcept { return draining_; }

  /// Declares a machine crashed: its sessions are skipped (as initiator)
  /// or completed moveless (as the active peer), and token routing goes
  /// around it. Idempotent.
  void mark_dead(MachineId machine);

  /// Assigns orphaned jobs onto a local machine (PR 5 churn
  /// re-dispatch applied to the replica).
  void adopt(const std::vector<JobId>& jobs, MachineId onto);

  /// Controller-side token re-injection after the holder died: resume
  /// the plan at the first live session >= `token`. Idempotent; ignored
  /// when this runner is mid-session or the token is already past.
  void inject_token(std::uint64_t token);

  // ----- reporting ----------------------------------------------------

  struct Counters {
    std::uint64_t sessions_initiated = 0;
    std::uint64_t sessions_completed = 0;  ///< as initiator, skips incl.
    std::uint64_t exchanges = 0;           ///< sessions that moved jobs
    std::uint64_t migrations = 0;          ///< initiator-side move count
    std::uint64_t transfers_sent = 0;      ///< TRANSFER frames, retries
    std::uint64_t transfers_applied = 0;   ///< distinct sessions applied
    std::uint64_t duplicates_ignored = 0;  ///< deduped receipts
    std::uint64_t retries = 0;             ///< retransmission timeouts
    std::uint64_t frames_sent = 0;         ///< every frame, retries incl.
    std::uint64_t bad_payloads = 0;        ///< dropped ACCEPT/TRANSFER
  };
  [[nodiscard]] const Counters& counters() const noexcept {
    return counters_;
  }

  /// Highest session this runner knows is underway or complete — the
  /// controller's crash-recovery progress probe.
  [[nodiscard]] std::uint64_t watermark() const noexcept {
    return watermark_;
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Load of `machine` recomputed canonically: sum of p(machine, j) over
  /// its jobs in ascending job id. Backend-independent to the last bit;
  /// status reports compare these %.17g.
  [[nodiscard]] Cost canonical_load(MachineId machine) const;

  /// Jobs on `machine` in ascending id order.
  [[nodiscard]] std::vector<JobId> sorted_jobs(MachineId machine) const;

  [[nodiscard]] const Schedule& replica() const noexcept {
    return *replica_;
  }

 private:
  enum class Phase {
    kIdle,          ///< not holding the token
    kAwaitAccept,   ///< REQUEST sent, waiting for ACCEPT / REJECT
    kAwaitDone,     ///< TRANSFER sent, waiting for DONE
    kAwaitTokenAck, ///< TOKEN passed, waiting for TOKEN_ACK
    kFinishing,     ///< finish token broadcast, collecting acks
  };

  void handle_frame(const net::Frame& frame);
  void handle_request(const net::Frame& frame);
  void handle_accept(const net::Frame& frame);
  void handle_reject(const net::Frame& frame);
  void handle_transfer(const net::Frame& frame);
  void handle_done(const net::Frame& frame);
  void handle_token(const net::Frame& frame);
  void handle_token_ack(const net::Frame& frame);

  void start_session(std::uint64_t token);
  void complete_session(std::uint64_t token);
  /// Routes the token to the first session >= `token` with a live
  /// initiator (running it directly when that initiator is local), or
  /// starts the finish broadcast when the plan is exhausted.
  void advance_token(std::uint64_t token);
  void begin_finish_broadcast();
  /// Makes the replica's row of `peer` equal `authoritative` (ascending).
  void resync_peer_row(MachineId peer,
                       const std::vector<JobId>& authoritative);
  /// Sum of p(machine, j) over `sorted` in order: canonical_load() when
  /// `sorted` is the machine's row in ascending id.
  [[nodiscard]] Cost load_of(MachineId machine,
                             const std::vector<JobId>& sorted) const;
  /// The payload validation rule for a remote TRANSFER (see above).
  [[nodiscard]] bool is_transfer_for(const net::Frame& frame,
                                     const net::TransferMoves& moves) const;
  void drop_bad_payload();
  void arm_retry();
  void on_retry(std::uint64_t generation);
  /// Stamps causal metadata (trace id + Lamport clock) onto a copy and
  /// transmits it. Every frame the runner emits goes through here.
  void send_frame(net::Frame frame);
  /// Trace id of the causal chain `frame` belongs to (session chains and
  /// token chains are domain-separated).
  [[nodiscard]] std::uint64_t frame_trace_id(
      const net::Frame& frame) const noexcept;
  /// Flight-records every protocol round the watermark has fully passed.
  void record_flight_rounds();
  [[nodiscard]] bool is_local(MachineId machine) const noexcept;
  [[nodiscard]] bool is_dead(MachineId machine) const noexcept {
    return dead_[machine] != 0;
  }
  [[nodiscard]] MachineId plan_initiator(std::uint64_t token) const;

  Schedule* replica_;
  net::Transport* transport_;
  TransportRunnerOptions options_;
  std::uint64_t total_ = 0;
  std::vector<std::uint8_t> local_;  ///< bitset: machine hosted here
  std::vector<std::uint8_t> dead_;

  Phase phase_ = Phase::kIdle;
  std::uint64_t active_ = kNoToken;
  MachineId active_initiator_ = 0;
  MachineId active_peer_ = 0;
  net::Frame outstanding_;  ///< frame to retransmit for the phase
  std::vector<MachineId> finish_unacked_;
  std::uint64_t timer_generation_ = 0;

  // Responder memory (one slot: sessions are globally serialized).
  std::uint64_t answered_ = kNoToken;
  net::Frame answer_;
  std::uint64_t applied_ = kNoToken;

  std::uint64_t watermark_ = 0;
  bool draining_ = false;
  bool done_ = false;
  Counters counters_;

  // Plan cache: the current round's permutation.
  mutable std::vector<MachineId> cached_order_;
  mutable std::uint64_t cached_round_ = kNoToken;

  obs::Counter* c_sessions_ = nullptr;
  obs::Counter* c_exchanges_ = nullptr;
  obs::Counter* c_migrations_ = nullptr;
  obs::Counter* c_transfers_sent_ = nullptr;
  obs::Counter* c_transfers_applied_ = nullptr;
  obs::Counter* c_retries_ = nullptr;
  obs::Counter* c_duplicates_ = nullptr;
  obs::Counter* c_frames_sent_ = nullptr;
  obs::Counter* c_bad_payloads_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;

  /// Causal clock: ticked on send, folded on receive. Stamps annotate
  /// frames and trace events only — the protocol never branches on them,
  /// so outcome determinism is untouched.
  obs::LamportClock lamport_;
  std::uint64_t flight_round_ = 0;  ///< next round to flight-record
};

}  // namespace dlb::dist
