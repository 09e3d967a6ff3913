#pragma once

// A simulated message-passing network on top of the discrete-event engine:
// point-to-point messages with a constant latency. The asynchronous
// DLB2C runner (dist/async_runner) exchanges its balancing protocol over
// this; the paper's sequential exchange model corresponds to zero latency.
//
// An optional FaultPlan (net/fault.hpp) perturbs deliveries with seeded
// drop/delay/duplicate/reorder decisions; without a plan the send path is
// byte-identical to the fault-free implementation.

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/types.hpp"
#include "des/engine.hpp"
#include "net/fault.hpp"
#include "obs/obs.hpp"
#include "stats/rng.hpp"

namespace dlb::net {

/// Fixed latency for every message.
class ConstantLatency {
 public:
  explicit ConstantLatency(des::SimTime value) : value_(value) {}
  [[nodiscard]] des::SimTime value() const noexcept { return value_; }

 private:
  des::SimTime value_;
};

/// Binds an engine and a latency; delivers callbacks after the latency and
/// counts traffic.
class Network {
 public:
  /// A constant latency draws nothing, so `rng` is never read.
  Network(des::Engine& engine, ConstantLatency latency, stats::Rng& /*rng*/)
      : engine_(&engine), latency_(latency.value()) {}

  /// Schedules `deliver` to run after the latency from -> to,
  /// subject to the attached fault plan (dropped messages never run).
  void send(MachineId from, MachineId to, std::function<void()> deliver);

  [[nodiscard]] std::uint64_t messages_sent() const noexcept {
    return messages_;
  }

  /// Attaches a fault plan (`nullptr` detaches). The plan must outlive the
  /// network; its decisions draw from a dedicated rng seeded by plan->seed,
  /// so protocol determinism is unaffected.
  void set_fault_plan(const FaultPlan* plan) { faults_.set_plan(plan); }

  [[nodiscard]] const FaultStats& fault_stats() const noexcept {
    return faults_.stats();
  }

  /// Messages held back by reorder faults and not yet released behind a
  /// later send (they deliver on the next send, or never if none follows).
  [[nodiscard]] std::size_t held_messages() const noexcept {
    return faults_.held();
  }

  /// Attaches observability sinks (counter net.messages, gauge
  /// net.last_latency, counters net.faults.dropped / .delayed /
  /// .duplicated / .reordered). `context` must outlive the network; null
  /// detaches.
  void attach_obs(const obs::Context* context);

 private:
  des::Engine* engine_;
  des::SimTime latency_;
  std::uint64_t messages_ = 0;
  FaultInjector faults_{0xFA17, "net.faults."};
  obs::Counter* obs_messages_ = nullptr;
  obs::Gauge* obs_last_latency_ = nullptr;
};

}  // namespace dlb::net
