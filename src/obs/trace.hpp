#pragma once

// Tracing half of the observability layer (docs/observability.md): a
// bounded ring-buffer event collector whose contents export as Chrome
// trace-event JSON (loadable in chrome://tracing or https://ui.perfetto.dev)
// or as CSV. Timestamps are microseconds: wall-clock engines use
// Tracer::now_us(), discrete-event engines map virtual time through
// sim_time_us() so one simulated time unit reads as one second in the
// viewer. Recording takes a mutex; the *disabled* fast path is the caller's
// single `if (tracer)` branch — no allocation, no lock.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "stats/json.hpp"

namespace dlb::obs {

/// Chrome trace-event phases we emit.
enum class Phase : char {
  kBegin = 'B',    ///< span start (paired with kEnd, per tid, LIFO)
  kEnd = 'E',      ///< span end
  kInstant = 'i',  ///< point event
  kCounter = 'C',  ///< sampled value series
};

/// One typed key/value argument attached to an event.
struct TraceArg {
  std::string key;
  std::variant<std::int64_t, double, bool, std::string> value;

  [[nodiscard]] bool operator==(const TraceArg&) const = default;
};

using TraceArgs = std::vector<TraceArg>;

struct TraceEvent {
  double ts_us = 0.0;     ///< microseconds (wall or simulated, see above)
  std::uint32_t tid = 0;  ///< machine id / worker index
  Phase phase = Phase::kInstant;
  std::string name;
  std::string category;
  TraceArgs args;
};

/// Maps virtual discrete-event time onto the viewer's microsecond axis.
[[nodiscard]] constexpr double sim_time_us(double sim_time) noexcept {
  return sim_time * 1e6;
}

struct TracerOptions {
  /// Ring capacity in events; once full, new events are dropped (and
  /// counted) so a runaway trace stays bounded and the retained prefix
  /// keeps its begin/end pairing.
  std::size_t capacity = 1 << 16;
};

class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Wall-clock microseconds since this tracer was constructed.
  [[nodiscard]] double now_us() const noexcept;

  void begin(double ts_us, std::uint32_t tid, std::string_view name,
             std::string_view category, TraceArgs args = {});
  void end(double ts_us, std::uint32_t tid, std::string_view name,
           TraceArgs args = {});
  void instant(double ts_us, std::uint32_t tid, std::string_view name,
               std::string_view category, TraceArgs args = {});
  /// A "C" event: the viewer plots `value` as a stacked counter track.
  void counter(double ts_us, std::string_view name, double value);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Copy of the recorded events, stably sorted by timestamp (events from
  /// different sub-simulations interleave; the stable sort keeps a span's
  /// begin before its end at equal timestamps).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// {"displayTimeUnit": "ms", "traceEvents": [...]} — the Chrome
  /// trace-event JSON object form, events sorted as in events().
  [[nodiscard]] stats::Json to_chrome_json() const;

  /// Flat CSV (ts_us, phase, tid, name, category, args) for scripting.
  void write_csv(std::ostream& out) const;

  void clear();

 private:
  void push(TraceEvent event);

  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII wall-clock span: records Phase::kBegin at construction and
/// Phase::kEnd at destruction using tracer->now_us(). A null tracer makes
/// every operation a single-branch no-op, so call sites need no ifs.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint32_t tid, std::string_view name,
             std::string_view category, TraceArgs args = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Arguments attached to the closing end event (results of the span).
  void annotate(TraceArg arg);

 private:
  Tracer* tracer_;
  std::uint32_t tid_;
  std::string name_;
  TraceArgs end_args_;
};

}  // namespace dlb::obs
