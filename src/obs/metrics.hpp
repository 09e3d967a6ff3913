#pragma once

// Metrics half of the observability layer (docs/observability.md): a
// registry of named Counter/Gauge/Histogram handles. Handle *lookup*
// (creation) takes a mutex; every *update* on a handle is a lock-free
// relaxed atomic, so engines resolve their handles once before a hot loop
// and then update freely from any number of threads. Snapshots serialize
// through stats::Json with names in sorted order, which keeps the output
// byte-deterministic for a deterministic workload.

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/json.hpp"

namespace dlb::obs {

/// Monotone event count (exchanges performed, messages sent, ...).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written point-in-time value (queue depth, current Cmax, residual).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed distribution of non-negative samples (latencies, sizes).
/// Bucket k counts samples in [2^(k-1+kMinExp), 2^(k+kMinExp)) seconds/units
/// with bucket 0 catching everything below 2^kMinExp (NaN included) and
/// the last bucket everything at or above its lower bound (+inf included);
/// the exact sum and count ride along so means stay precise even though
/// quantiles are bucket-resolution estimates.
class Histogram {
 public:
  static constexpr int kMinExp = -30;  ///< ~1e-9: below this lands in [0].
  static constexpr int kNumBuckets = 64;

  void observe(double v) noexcept;

  /// The bucket observe() counts v in: the one bucket rule, shared with
  /// callers that count buckets in plain local arrays. It is frexp's
  /// exponent minus kMinExp, clamped: for v > 0 with biased IEEE exponent
  /// e, frexp gives e - 1022 on normals, and subnormals (e == 0) and +inf
  /// (e == 2047) clamp to the first and last bucket.
  [[nodiscard]] static int bucket_index(double v) noexcept {
    if (!(v > 0.0)) return 0;  // NaN fails the test too
    const auto biased =
        static_cast<int>(std::bit_cast<std::uint64_t>(v) >> 52);  // sign 0
    return std::clamp(biased - 1022 - kMinExp, 0, kNumBuckets - 1);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  struct Snapshot {
    /// (inclusive upper bound, cumulative-free bucket count), only buckets
    /// with a non-zero count, in increasing bound order.
    std::vector<std::pair<double, std::uint64_t>> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;

    /// Upper bound of the bucket holding the q-quantile (0 when empty).
    [[nodiscard]] double quantile_bound(double q) const noexcept;
  };
  [[nodiscard]] Snapshot snapshot() const;
  /// The snapshot of plain per-bucket counts (indexed by bucket_index)
  /// whose samples sum to `sum`.
  [[nodiscard]] static Snapshot snapshot_of(
      const std::array<std::uint64_t, kNumBuckets>& counts, double sum);

 private:
  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Owns named metrics with stable addresses; see file comment for the
/// locking contract. Names are namespaced per metric kind, so a counter and
/// a gauge may share a name (they serialize under separate sections).
class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Finds or creates the handle; the reference stays valid for the
  /// registry's lifetime.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// All counters as sorted (name, total) pairs — the bench runner exports
  /// these into its telemetry document.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counter_values() const;

  /// Ordered document {"counters": {...}, "gauges": {...},
  /// "histograms": {...}} with names sorted inside each section.
  [[nodiscard]] stats::Json snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace dlb::obs
