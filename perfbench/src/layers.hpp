#pragma once

// Layer timing from outside the library: decorators that wrap the public
// interfaces (PairKernel, PeerSelector, PlacementPolicy, net::Transport),
// forward every call unchanged and time it. Decorators are installed only
// in traced passes; an untraced pass hands the engines the plain objects.
// Forwarding is exact (same arguments, same order, same RNG draws), so a
// traced pass reproduces the untraced pass's schedule and report bytes.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dist/open_system/placement.hpp"
#include "dist/peer_selector.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "pairwise/pair_kernel.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point start) noexcept {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (the definition numpy and Python's
/// statistics module use with the "inclusive" method). Empty input -> 0.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Per-thread accumulators: each thread that calls local() gets its own
/// slot, so concurrent callers (the parallel engine's pool workers) never
/// share one. Read the slots only after the writers have finished.
template <class T>
class PerThread {
 public:
  PerThread() : id_(next_id()) {}
  PerThread(const PerThread&) = delete;
  PerThread& operator=(const PerThread&) = delete;

  T& local() {
    // Keyed by a process-unique id, not `this`, so a new object at a
    // recycled address never inherits a dead object's slot.
    thread_local std::uint64_t cached_id = 0;
    thread_local T* cached = nullptr;
    if (cached_id != id_) {
      const std::lock_guard<std::mutex> lock(mutex_);
      slots_.push_back(std::make_unique<T>());
      cached = slots_.back().get();
      cached_id = id_;
    }
    return *cached;
  }

  [[nodiscard]] const std::vector<std::unique_ptr<T>>& slots() const {
    return slots_;
  }

 private:
  static std::uint64_t next_id() {
    static std::mutex mutex;
    static std::uint64_t counter = 0;
    const std::lock_guard<std::mutex> lock(mutex);
    return ++counter;
  }

  std::uint64_t id_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<T>> slots_;
};

/// Calls and busy time of one layer on one thread, plus per-call samples.
struct CallStats {
  std::uint64_t calls = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t changed = 0;    ///< Kernel calls that moved a job.
  std::uint64_t pool_jobs = 0;  ///< Kernel: jobs pooled, summed over calls.
  std::vector<float> call_ns;   ///< Kernel: one duration per call.
};

/// Totals of CallStats over every thread.
struct CallTotals {
  std::uint64_t calls = 0;
  double busy_s = 0.0;
  std::uint64_t changed = 0;
  std::uint64_t pool_jobs = 0;
  std::vector<double> call_us;
};

[[nodiscard]] CallTotals merge(const PerThread<CallStats>& stats);

class TimedKernel final : public dlb::pairwise::PairKernel {
 public:
  explicit TimedKernel(const dlb::pairwise::PairKernel& inner)
      : inner_(&inner) {}

  void prepare(dlb::Schedule& schedule) const override;
  bool balance(dlb::Schedule& schedule, dlb::MachineId a,
               dlb::MachineId b) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

  [[nodiscard]] CallTotals totals() const { return merge(stats_); }

 private:
  const dlb::pairwise::PairKernel* inner_;
  mutable PerThread<CallStats> stats_;
};

class TimedSelector final : public dlb::dist::PeerSelector {
 public:
  explicit TimedSelector(const dlb::dist::PeerSelector& inner)
      : inner_(&inner) {}

  [[nodiscard]] dlb::MachineId select(dlb::MachineId initiator,
                                      std::size_t num_machines,
                                      dlb::stats::Rng& rng) const override;
  [[nodiscard]] dlb::MachineId select_on(
      dlb::MachineId initiator, std::span<const dlb::MachineId> live,
      const dlb::Schedule& schedule, dlb::stats::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }

  [[nodiscard]] CallTotals totals() const { return merge(stats_); }

 private:
  const dlb::dist::PeerSelector* inner_;
  mutable PerThread<CallStats> stats_;
};

class TimedPlacement final : public dlb::dist::PlacementPolicy {
 public:
  explicit TimedPlacement(const dlb::dist::PlacementPolicy& inner)
      : inner_(&inner) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] dlb::MachineId place(const dlb::dist::PlacementView& view,
                                     dlb::JobId job,
                                     dlb::stats::Rng& rng) const override;

  [[nodiscard]] CallTotals totals() const { return merge(stats_); }

 private:
  const dlb::dist::PlacementPolicy* inner_;
  mutable PerThread<CallStats> stats_;
};

/// What a TimedTransport saw. Handler time is the protocol's own work
/// (frame handlers and timer callbacks run inside poll()); the rest of
/// poll() is socket I/O and waiting.
struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;  ///< Header + payload, as encoded.
  std::int64_t send_ns = 0;
  std::int64_t send_in_handler_ns = 0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::int64_t poll_ns = 0;
  std::int64_t handler_ns = 0;
};

/// Single-threaded like the transports it wraps. The handlers it installs
/// on the inner transport hold its address, so it is neither copied nor
/// moved.
class TimedTransport final : public dlb::net::Transport {
 public:
  /// Copies of the first `capture` frames sent are kept for the frame
  /// codec microloop.
  TimedTransport(dlb::net::Transport& inner, std::size_t capture)
      : inner_(&inner), capture_(capture) {}
  TimedTransport(const TimedTransport&) = delete;
  TimedTransport& operator=(const TimedTransport&) = delete;

  void set_handler(FrameHandler handler) override;
  void connect() override { inner_->connect(); }
  void send(const dlb::net::Frame& frame) override;
  void schedule_after(double delay, TimerCallback callback) override;
  [[nodiscard]] const dlb::net::Clock& clock() const override {
    return inner_->clock();
  }
  [[nodiscard]] const std::vector<dlb::MachineId>& local_machines()
      const override {
    return inner_->local_machines();
  }
  [[nodiscard]] std::size_t num_machines() const override {
    return inner_->num_machines();
  }
  [[nodiscard]] bool reachable(dlb::MachineId machine) const override {
    return inner_->reachable(machine);
  }
  std::size_t poll(double max_wait) override;

  [[nodiscard]] const TransportStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<dlb::net::Frame>& captured() const noexcept {
    return captured_;
  }

 private:
  dlb::net::Transport* inner_;
  std::size_t capture_;
  int handler_depth_ = 0;
  TransportStats stats_;
  std::vector<dlb::net::Frame> captured_;
};

}  // namespace perfbench
