#include "dist/exchange_engine.hpp"

#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "dist/epoch_driver.hpp"

namespace dlb::dist {

namespace {

/// One exchange per step; every draw comes from the caller's Rng.
class SequentialPlanner {
 public:
  using Result = RunResult;
  static constexpr const char* kName = "ExchangeEngine";
  static constexpr bool kChecksSeed = false;
  static constexpr auto kEngine = Checkpoint::Engine::kSequential;
  static constexpr bool kStepIsEpoch = false;
  static constexpr bool kCountsFinalIdleEpoch = true;
  static constexpr bool kFlightCmaxFromLoads = true;

  // The round is reserved once from the machine count: ids are stable
  // under churn, so re-filling it never outgrows m.
  SequentialPlanner(EpochRun& run, RunResult& result,
                    const PeerSelector& selector, stats::Rng& rng)
      : run_(run),
        result_(result),
        selector_(selector),
        rng_(rng) {
    round_.reserve(m());
    if (run.metrics != nullptr) {
      c_exchanges_ = &run.metrics->counter("exchange.count");
      c_changed_ = &run.metrics->counter("exchange.changed");
      c_migrations_ = &run.metrics->counter("exchange.migrations");
      g_cmax_ = &run.metrics->gauge("exchange.cmax");
    }
  }

  [[nodiscard]] bool matches(const Checkpoint& /*ck*/) const { return true; }

  void reset(const std::vector<MachineId>& order) {
    round_.assign(order.begin(), order.end());
  }

  void restore(const Checkpoint& ck) {
    // The checkpointed generator continues the exact draw sequence; the
    // caller's rng is overwritten so its pre-resume state cannot leak in.
    rng_ = stats::Rng::from_state(ck.rng_state);
    reset(ck.order);
    for (const auto& [name, value] : ck.obs_counters) {
      if (name == "exchange.migrations") kernel_moves_ = value;
    }
  }

  void save(Checkpoint& ck) const {
    ck.rng_state = rng_.state();
    ck.order.assign(round_.begin(), round_.end());
    ck.obs_counters = checkpoint_obs_counters(
        {{"exchange.count", ck.exchanges},
         {"exchange.changed", ck.changed_exchanges},
         {"exchange.migrations", kernel_moves_}},
        ck.churn);
  }

  bool plan() {
    // An empty round ends the run; one live machine has no partner.
    if (round_.size() < (run_.churn.active() ? 2U : 1U)) return false;
    stats::shuffle(round_.begin(), round_.end(), rng_);
    pos_ = 0;
    return true;
  }

  void idle() {}

  std::optional<Cost> step() {
    if (pos_ == round_.size()) return std::nullopt;
    Schedule& schedule = run_.schedule;
    const MachineId initiator = round_[pos_++];
    const std::uint64_t migrations_pre = schedule.migrations();
    // Peer selection runs over the compacted live machine set (the
    // identity with the whole cluster live).
    const auto [peer, changed] = exchange_with_peer(
        run_.kernel, selector_, schedule, run_.churn.live_machines(),
        initiator, run_.churn.live_index(initiator), rng_);
    ++result_.exchanges;
    if (changed) ++result_.changed_exchanges;
    const Cost cmax = schedule.makespan();
    // Kernel-driven job moves only: RunResult::migrations also counts
    // churn drains.
    const std::uint64_t moved = schedule.migrations() - migrations_pre;
    kernel_moves_ += moved;

    if (run_.options.record_trace) {
      result_.trace.push_back(
          {.makespan = cmax, .count = changed ? 1u : 0u,
           .migrations = run_.migrations()});
    }
    if (c_exchanges_ != nullptr) {
      c_exchanges_->add();
      if (changed) c_changed_->add();
      c_migrations_->add(moved);
      g_cmax_->set(cmax);
    }
    if (run_.tracer != nullptr) {
      run_.trace_exchange("exchange", initiator, peer, changed, moved,
                          {"cmax", cmax});
    }
    return cmax;
  }

 private:
  [[nodiscard]] std::size_t m() const { return run_.schedule.num_machines(); }

  EpochRun& run_;
  RunResult& result_;
  const PeerSelector& selector_;
  stats::Rng& rng_;
  std::vector<MachineId> round_;
  std::size_t pos_ = 0;  ///< Next initiator within the round.
  std::uint64_t kernel_moves_ = 0;
  obs::Counter* c_exchanges_ = nullptr;
  obs::Counter* c_changed_ = nullptr;
  obs::Counter* c_migrations_ = nullptr;
  obs::Gauge* g_cmax_ = nullptr;
};

}  // namespace

ExchangeOutcome exchange_with_peer(const pairwise::PairKernel& kernel,
                                   const PeerSelector& selector,
                                   Schedule& schedule,
                                   std::span<const MachineId> live,
                                   MachineId initiator,
                                   std::size_t initiator_index,
                                   stats::Rng& rng) {
  const MachineId peer = live[selector.select_on(
      static_cast<MachineId>(initiator_index), live, schedule, rng)];
  return {.peer = peer, .changed = kernel.balance(schedule, initiator, peer)};
}

SequentialRepair::SequentialRepair(const pairwise::PairKernel& kernel,
                                   const PeerSelector& selector,
                                   std::size_t num_machines)
    : kernel_(&kernel), selector_(&selector), live_(num_machines) {
  std::iota(live_.begin(), live_.end(), MachineId{0});
  round_.reserve(num_machines);
}

SequentialRepair::Tally SequentialRepair::run(Schedule& schedule,
                                              std::size_t budget,
                                              stats::Rng& rng) {
  Tally tally;
  if (live_.empty()) return tally;
  kernel_->prepare(schedule);
  round_.assign(live_.begin(), live_.end());
  // An epoch shuffles the round as the previous one left it; a budget
  // above the machine count spans several epochs.
  while (tally.exchanges < budget) {
    stats::shuffle(round_.begin(), round_.end(), rng);
    for (const MachineId initiator : round_) {
      if (tally.exchanges == budget) break;
      // Every machine is live, so a machine's live index is its id.
      if (exchange_with_peer(*kernel_, *selector_, schedule, live_, initiator,
                             initiator, rng)
              .changed) {
        ++tally.changed;
      }
      ++tally.exchanges;
    }
  }
  return tally;
}

RunResult ExchangeEngine::run(Schedule& schedule, const EngineOptions& options,
                              stats::Rng& rng) const {
  RunResult result;
  run_epochs<SequentialPlanner>(result, schedule, options, *kernel_,
                                *selector_, rng);
  return result;
}

}  // namespace dlb::dist
