#pragma once

// Convergence flight recorder (docs/cluster-observability.md): a bounded
// per-round time series of the quantities that show a cluster converging —
// Cmax, imbalance, cumulative migrations/exchanges, frame and retransmit
// counts, and the deepest per-machine queue. The transport runner records
// one sample per protocol round; both exchange engines record one per
// epoch. Unlike the tracer ring (which keeps the *oldest* events so a
// trace's head is never rewritten), the flight recorder keeps the *newest*
// samples: like an aircraft recorder, the last moments before landing —
// or before a crash — are the ones worth replaying. Like the tracer, it
// records only when attached: an engine without a recorder does no work.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <vector>

#include "stats/json.hpp"

namespace dlb::obs {

/// One point of the convergence time series. All cumulative fields count
/// from the start of the run, so differencing adjacent samples yields
/// per-round rates.
struct FlightSample {
  std::uint64_t round = 0;      ///< protocol round / engine epoch
  double cmax = 0.0;            ///< makespan at the sample point
  double imbalance = 0.0;       ///< cmax minus the least-loaded machine
  std::uint64_t exchanges = 0;  ///< cumulative sessions completed
  std::uint64_t migrations = 0;  ///< cumulative jobs moved
  std::uint64_t frames = 0;      ///< cumulative frames sent (0 in-process)
  std::uint64_t retries = 0;     ///< cumulative retransmissions
  std::uint64_t queue_max = 0;   ///< deepest per-machine job queue

  friend bool operator==(const FlightSample&, const FlightSample&) = default;
};

/// Sets `sample`'s cmax (the largest load over `machines`, unless `cmax` is
/// given), imbalance (cmax minus the smallest load; 0 over no machine) and
/// queue_max (the longest job list) from a schedule's loads and job lists.
template <typename Schedule, typename Machines>
void sample_loads(FlightSample& sample, const Schedule& schedule,
                  Machines&& machines, std::optional<double> cmax = {}) {
  double scanned = 0.0;
  double cmin = std::numeric_limits<double>::infinity();
  std::uint64_t queue_max = 0;
  for (const auto machine : machines) {
    const double load = schedule.load(machine);
    scanned = std::max(scanned, load);
    cmin = std::min(cmin, load);
    queue_max = std::max<std::uint64_t>(queue_max,
                                        schedule.jobs_on(machine).size());
  }
  sample.cmax = cmax.value_or(scanned);
  sample.imbalance = sample.cmax - (std::isfinite(cmin) ? cmin : sample.cmax);
  sample.queue_max = queue_max;
}

struct FlightRecorderOptions {
  std::size_t capacity = 1 << 12;  ///< samples retained (newest win)
};

/// Bounded ring of FlightSamples; overwrites the oldest when full and
/// counts what it evicted. Mutexed like the tracer ring: recording happens
/// at round/epoch granularity, far off any hot path.
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {});

  void record(const FlightSample& sample);

  /// Retained samples, oldest first.
  [[nodiscard]] std::vector<FlightSample> samples() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Samples evicted to make room (total recorded = size + dropped).
  [[nodiscard]] std::uint64_t dropped() const;
  void clear();

  /// `{"schema": "dlb-flight-v1", "capacity", "dropped", "samples": [...]}`
  /// — ordered and byte-deterministic for a deterministic run.
  [[nodiscard]] stats::Json to_json() const;

  /// Inverse of to_json() (tolerant: missing fields default to 0). Throws
  /// std::runtime_error when `doc` is not a flight document.
  static std::vector<FlightSample> samples_from_json(const stats::Json& doc);

 private:
  mutable std::mutex mutex_;
  std::vector<FlightSample> ring_;
  std::size_t head_ = 0;  ///< next write slot once the ring has wrapped
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
};

}  // namespace dlb::obs
