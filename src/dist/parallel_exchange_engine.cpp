#include "dist/parallel_exchange_engine.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "dist/epoch_driver.hpp"
#include "stats/rng.hpp"

namespace dlb::dist {

namespace {

/// Salt for the per-epoch initiator shuffle stream, so it never collides
/// with the per-session streams derived from the bare seed.
constexpr std::uint64_t kEpochSalt = 0xA5A5'5A5A'C3C3'3C3CULL;

/// A planned initiator whose drawn peer is already claimed redraws up to
/// this many times before the session is abandoned as a conflict.
constexpr std::size_t kMaxPeerRetries = 2;

/// One planned disjoint session: fixed in the sequential plan phase,
/// executed in parallel (its outcome written by exactly one worker), and
/// committed in session order.
struct Session {
  MachineId initiator = 0;
  MachineId peer = 0;
  /// Jobs on the pair when planned: the kernel's pool, which no other
  /// session of the batch can change. Sets the dispatch order only.
  std::size_t pool = 0;
  bool changed = false;
  std::uint64_t moved = 0;
};

/// One disjoint batch per epoch, planned from per-session streams.
class ParallelPlanner {
 public:
  using Result = ParallelRunResult;
  static constexpr const char* kName = "ParallelExchangeEngine";
  static constexpr bool kChecksSeed = true;
  static constexpr auto kEngine = Checkpoint::Engine::kParallel;
  static constexpr bool kStepIsEpoch = true;
  static constexpr bool kCountsFinalIdleEpoch = false;
  static constexpr bool kFlightCmaxFromLoads = false;

  // Every plan buffer is sized once up front: machine ids are stable under
  // churn, so `m` bounds the initiator order and the claim marks, and an
  // epoch never holds more than m/2 disjoint sessions.
  ParallelPlanner(EpochRun& run, ParallelRunResult& result,
                  const PeerSelector& selector, std::uint64_t seed,
                  parallel::ThreadPool* pool)
      : run_(run),
        result_(result),
        selector_(selector),
        seed_(seed),
        pool_(pool),
        claimed_(m(), 0),
        locks_(std::make_unique<std::mutex[]>(m())) {
    order_.reserve(m());
    batch_.reserve(m() / 2);
    dispatch_.reserve(m() / 2);
    if (run.metrics != nullptr) {
      c_sessions_ = &run.metrics->counter("parexchange.sessions");
      c_conflicts_ = &run.metrics->counter("parexchange.conflicts");
      c_retries_ = &run.metrics->counter("parexchange.retries");
      c_epochs_ = &run.metrics->counter("parexchange.epochs");
      g_cmax_ = &run.metrics->gauge("parexchange.cmax");
    }
  }

  [[nodiscard]] bool matches(const Checkpoint& ck) const {
    return ck.seed == seed_;
  }

  void reset(const std::vector<MachineId>& order) {
    order_.assign(order.begin(), order.end());
  }

  void restore(const Checkpoint& ck) {
    reset(ck.order);
    next_session_ = ck.next_session;
    result_.conflicts = ck.conflicts;
    result_.peer_retries = ck.peer_retries;
  }

  void save(Checkpoint& ck) const {
    ck.seed = seed_;
    ck.order.assign(order_.begin(), order_.end());
    ck.next_session = next_session_;
    ck.conflicts = result_.conflicts;
    ck.peer_retries = result_.peer_retries;
    ck.obs_counters = checkpoint_obs_counters(
        {{"parexchange.sessions", ck.exchanges},
         {"parexchange.conflicts", ck.conflicts},
         {"parexchange.retries", ck.peer_retries},
         {"parexchange.epochs", ck.epochs}},
        ck.churn);
  }

  // Plan (sequential, after this epoch's churn events): pick disjoint
  // pairs, so an elastic run keeps the thread-count invariance.
  bool plan() {
    const std::uint64_t epoch = result_.epochs;
    const std::vector<MachineId>& live = run_.churn.live_machines();
    const std::size_t budget = std::min(
        live.size() / 2, run_.options.max_exchanges - result_.exchanges);
    batch_.clear();
    stats::Rng epoch_rng = stats::Rng::stream(seed_ ^ kEpochSalt, epoch);
    stats::shuffle(order_.begin(), order_.end(), epoch_rng);
    for (const MachineId initiator : order_) {
      if (batch_.size() == budget) break;
      if (claimed_[initiator] == epoch) continue;
      stats::Rng srng = stats::Rng::stream(seed_, next_session_++);
      std::uint64_t retries = 0;
      std::optional<MachineId> peer;
      while (!peer.has_value() && retries <= kMaxPeerRetries) {
        // Peer selection runs over the compacted live machine set; with
        // the whole cluster live the mapping is the identity.
        const MachineId drawn = live[selector_.select_on(
            static_cast<MachineId>(run_.churn.live_index(initiator)),
            std::span<const MachineId>(live), run_.schedule, srng)];
        if (claimed_[drawn] != epoch) {
          peer = drawn;
        } else {
          ++retries;
        }
      }
      result_.peer_retries += retries;
      if (c_retries_ && retries != 0) c_retries_->add(retries);
      if (!peer.has_value()) {
        // Every draw hit a machine already in the batch: abandon. The
        // first session of an epoch always plans (nothing is claimed
        // yet), so the loop cannot stall.
        ++result_.conflicts;
        if (c_conflicts_) c_conflicts_->add();
        continue;
      }
      // Epoch-stamped claim marks reset for free as the epoch advances.
      claimed_[initiator] = epoch;
      claimed_[*peer] = epoch;
      batch_.push_back({initiator, *peer,
                        run_.schedule.jobs_on(initiator).size() +
                            run_.schedule.jobs_on(*peer).size()});
    }
    pending_ = !batch_.empty();
    return pending_;
  }

  std::optional<Cost> step() {
    if (!pending_) return std::nullopt;
    pending_ = false;
    Schedule& schedule = run_.schedule;

    // Execute (parallel) on disjoint pairs. The per-machine locks, taken
    // in (min, max) id order, never contend: they keep the phase safe by
    // construction (and visibly ordered under TSan) even if a future
    // kernel reads beyond its pair.
    const auto run_session = [&](Session& session) {
      const MachineId lo = std::min(session.initiator, session.peer);
      const MachineId hi = std::max(session.initiator, session.peer);
      const std::scoped_lock guard(locks_[lo], locks_[hi]);
      const std::uint64_t arrivals_pre = schedule.arrivals(session.initiator) +
                                         schedule.arrivals(session.peer);
      session.changed =
          run_.kernel.balance(schedule, session.initiator, session.peer);
      session.moved = schedule.arrivals(session.initiator) +
                      schedule.arrivals(session.peer) - arrivals_pre;
    };
    if (pool_ != nullptr && batch_.size() > 1) {
      // Largest pool first (ties by session index), claimed one session
      // at a time: longest-processing-time-first list scheduling, so no
      // worker is left with a long kernel call after the others finish.
      // Sessions of a batch commute and each writes its own slot, so the
      // order changes wall time only.
      dispatch_.resize(batch_.size());
      std::iota(dispatch_.begin(), dispatch_.end(), std::size_t{0});
      std::sort(dispatch_.begin(), dispatch_.end(),
                [&](std::size_t x, std::size_t y) {
                  return batch_[x].pool != batch_[y].pool
                             ? batch_[x].pool > batch_[y].pool
                             : x < y;
                });
      parallel::parallel_for(*pool_, dispatch_.size(), [&](std::size_t k) {
        run_session(batch_[dispatch_[k]]);
      });
    } else {
      for (Session& session : batch_) run_session(session);
    }

    // Commit (sequential, in session order).
    const auto epoch = static_cast<std::int64_t>(result_.epochs);
    for (const Session& session : batch_) {
      ++result_.exchanges;
      if (session.changed) ++result_.changed_exchanges;
      if (c_sessions_) c_sessions_->add();
      if (run_.tracer) {
        run_.trace_exchange("session", session.initiator, session.peer,
                            session.changed, session.moved, {"epoch", epoch});
      }
    }
    return end_epoch(batch_.size());
  }

  /// An epoch without sessions still counts on the churn timeline.
  void idle() { end_epoch(0); }

 private:
  [[nodiscard]] std::size_t m() const { return run_.schedule.num_machines(); }

  Cost end_epoch(std::uint64_t sessions) {
    if (c_epochs_) c_epochs_->add();
    const Cost cmax = run_.schedule.makespan();
    if (g_cmax_) g_cmax_->set(cmax);
    if (run_.options.record_trace) {
      result_.trace.push_back({.makespan = cmax,
                               .count = sessions,
                               .migrations = run_.migrations()});
    }
    return cmax;
  }

  EpochRun& run_;
  ParallelRunResult& result_;
  const PeerSelector& selector_;
  std::uint64_t seed_;
  parallel::ThreadPool* pool_;
  std::vector<MachineId> order_;
  std::vector<std::uint64_t> claimed_;
  std::vector<Session> batch_;
  std::vector<std::size_t> dispatch_;  ///< batch_ indices, largest first.
  std::unique_ptr<std::mutex[]> locks_;
  std::uint64_t next_session_ = 0;  ///< Global id of per-session streams.
  bool pending_ = false;            ///< The planned batch has not run yet.
  obs::Counter* c_sessions_ = nullptr;
  obs::Counter* c_conflicts_ = nullptr;
  obs::Counter* c_retries_ = nullptr;
  obs::Counter* c_epochs_ = nullptr;
  obs::Gauge* g_cmax_ = nullptr;
};

}  // namespace

ParallelRunResult ParallelExchangeEngine::run(
    Schedule& schedule, const ParallelEngineOptions& options,
    std::uint64_t seed) const {
  if (schedule.num_machines() < 2) {
    throw std::invalid_argument(
        "ParallelExchangeEngine: need at least two machines");
  }
  ParallelRunResult result;
  run_epochs<ParallelPlanner>(result, schedule, options, *kernel_,
                              *selector_, seed, options.pool);
  return result;
}

}  // namespace dlb::dist
