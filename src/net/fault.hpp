#pragma once

// Seeded network fault injection. A FaultPlan attaches to net::Network (the
// simulated message layer) or to a SocketTransport (its chaos proxy on real
// frames); both route every remote send through one FaultInjector, which
// makes independent Bernoulli draws from a dedicated fault stream: messages
// can be dropped, delayed by extra latency, duplicated, or reordered behind
// a later send. The decisions are a deterministic function of the plan's
// seed, so a failing run replays exactly from (instance seed, fault seed).
//
// The balancing protocols must tolerate every plan: the property harness
// (src/check) asserts the async runners still terminate and conserve all
// jobs under arbitrary fault mixes — the decentralized analogue of the
// "unreliable machines" caveat the paper's conclusion raises.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "des/engine.hpp"
#include "obs/metrics.hpp"
#include "stats/rng.hpp"

namespace dlb::net {

/// Per-message fault probabilities plus the dedicated fault stream seed.
/// All probabilities are independent; a message can be both delayed and
/// duplicated. Reordering holds the message back until the next send()
/// schedules, so it arrives after a message sent later than it.
struct FaultPlan {
  double drop_probability = 0.0;
  double delay_probability = 0.0;
  double duplicate_probability = 0.0;
  double reorder_probability = 0.0;
  /// Extra latency added to delayed messages, uniform in [lo, hi).
  des::SimTime delay_lo = 0.5;
  des::SimTime delay_hi = 2.0;
  /// Seed of the fault decision stream (independent of the protocol rng).
  std::uint64_t seed = 0;

  // ----- named single-fault plans (the harness's standard battery) -----

  static FaultPlan drops(double p, std::uint64_t seed);
  static FaultPlan delays(double p, std::uint64_t seed);
  static FaultPlan duplicates(double p, std::uint64_t seed);
  static FaultPlan reorders(double p, std::uint64_t seed);
  /// All four faults at probability p each.
  static FaultPlan chaos(double p, std::uint64_t seed);

  /// True when every probability is zero (the plan is a no-op).
  [[nodiscard]] bool trivial() const noexcept {
    return drop_probability <= 0.0 && delay_probability <= 0.0 &&
           duplicate_probability <= 0.0 && reorder_probability <= 0.0;
  }
};

/// Counts of injected faults, kept by the FaultInjector alongside its obs
/// counters (net.faults.* / net.socket.faults.*) so callers without a
/// metrics registry still see what the plan did.
struct FaultStats {
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return dropped + delayed + duplicated + reordered;
  }
};

/// Applies a FaultPlan to one sender's remote messages. Draws come from
/// `Rng::stream(plan seed, stream)`; the counters `<prefix>dropped`,
/// `delayed`, `duplicated` and `reordered` are registered only while a
/// plan is live and metrics are attached, so fault-free runs keep their
/// metric snapshots byte-identical to a sender without fault injection.
class FaultInjector {
 public:
  /// Delivers one message.
  using Delivery = std::function<void()>;

  FaultInjector(std::uint64_t stream, std::string counter_prefix)
      : stream_(stream), prefix_(std::move(counter_prefix)) {}

  /// Attaches a plan (null or trivial detaches) and restarts the fault
  /// stream, the stats and the held messages. The plan must outlive the
  /// injector.
  void set_plan(const FaultPlan* plan);
  /// Attaches the registry the fault counters live in (null detaches).
  void set_metrics(obs::Metrics* metrics);

  /// False when no plan is attached: the sender delivers directly.
  [[nodiscard]] bool live() const noexcept { return plan_ != nullptr; }
  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }
  /// Messages held back by reorder faults and not yet released behind a
  /// later send (they deliver on the next send, or never if none follows).
  [[nodiscard]] std::size_t held() const noexcept { return held_.size(); }

  /// Applies the live plan to one message. Draws are made in a fixed
  /// order — drop, delay, duplicate, reorder — so a run replays exactly
  /// from the plan seed. `ship(extra, delivery)` sends one copy `extra`
  /// time units later than a fault-free send would (0 when not delayed).
  /// A held message ships right behind the next message that ships, with
  /// that message's delay, so it arrives after it.
  template <typename Ship>
  void send(Delivery delivery, Ship&& ship) {
    if (rng_.bernoulli(plan_->drop_probability)) {
      count(stats_.dropped, c_dropped_);
      return;
    }
    double extra = 0.0;
    if (rng_.bernoulli(plan_->delay_probability)) {
      extra = rng_.uniform(plan_->delay_lo, plan_->delay_hi);
      count(stats_.delayed, c_delayed_);
    }
    if (rng_.bernoulli(plan_->duplicate_probability)) {
      count(stats_.duplicated, c_duplicated_);
      ship(extra, delivery);  // the copy
    }
    if (rng_.bernoulli(plan_->reorder_probability)) {
      count(stats_.reordered, c_reordered_);
      held_.push_back(std::move(delivery));
      return;
    }
    ship(extra, std::move(delivery));
    std::vector<Delivery> held;
    held.swap(held_);
    for (Delivery& released : held) ship(extra, std::move(released));
  }

 private:
  static void count(std::uint64_t& stat, obs::Counter* counter) {
    ++stat;
    if (counter != nullptr) counter->add();
  }
  void resolve_counters();

  std::uint64_t stream_;
  std::string prefix_;
  const FaultPlan* plan_ = nullptr;
  obs::Metrics* metrics_ = nullptr;
  stats::Rng rng_{0};
  FaultStats stats_;
  std::vector<Delivery> held_;
  obs::Counter* c_dropped_ = nullptr;
  obs::Counter* c_delayed_ = nullptr;
  obs::Counter* c_duplicated_ = nullptr;
  obs::Counter* c_reordered_ = nullptr;
};

/// "drop" / "delay" / "duplicate" / "reorder" / "chaos" / "none" -> plan
/// with probability p. Throws std::invalid_argument on an unknown name.
[[nodiscard]] FaultPlan fault_plan_by_name(const std::string& name, double p,
                                           std::uint64_t seed);

}  // namespace dlb::net
