#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

CallTotals merge(const PerThread<CallStats>& stats) {
  CallTotals totals;
  std::int64_t busy_ns = 0;
  for (const auto& slot : stats.slots()) {
    totals.calls += slot->calls;
    busy_ns += slot->busy_ns;
    totals.changed += slot->changed;
    totals.pool_jobs += slot->pool_jobs;
    for (const float ns : slot->call_ns) {
      totals.call_us.push_back(static_cast<double>(ns) * 1e-3);
    }
  }
  totals.busy_s = static_cast<double>(busy_ns) * 1e-9;
  return totals;
}

void TimedKernel::prepare(dlb::Schedule& schedule) const {
  inner_->prepare(schedule);
}

bool TimedKernel::balance(dlb::Schedule& schedule, dlb::MachineId a,
                          dlb::MachineId b) const {
  CallStats& slot = stats_.local();
  const std::size_t pooled =
      schedule.jobs_on(a).size() + schedule.jobs_on(b).size();
  const std::int64_t start = now_ns();
  const bool changed = inner_->balance(schedule, a, b);
  const std::int64_t took = now_ns() - start;
  ++slot.calls;
  slot.busy_ns += took;
  slot.changed += changed ? 1 : 0;
  slot.pool_jobs += pooled;
  slot.call_ns.push_back(static_cast<float>(took));
  return changed;
}

dlb::MachineId TimedSelector::select(dlb::MachineId initiator,
                                     std::size_t num_machines,
                                     dlb::stats::Rng& rng) const {
  CallStats& slot = stats_.local();
  const std::int64_t start = now_ns();
  const dlb::MachineId peer = inner_->select(initiator, num_machines, rng);
  slot.busy_ns += now_ns() - start;
  ++slot.calls;
  return peer;
}

dlb::MachineId TimedSelector::select_on(dlb::MachineId initiator,
                                        std::span<const dlb::MachineId> live,
                                        const dlb::Schedule& schedule,
                                        dlb::stats::Rng& rng) const {
  CallStats& slot = stats_.local();
  const std::int64_t start = now_ns();
  const dlb::MachineId peer =
      inner_->select_on(initiator, live, schedule, rng);
  slot.busy_ns += now_ns() - start;
  ++slot.calls;
  return peer;
}

dlb::MachineId TimedPlacement::place(const dlb::dist::PlacementView& view,
                                     dlb::JobId job,
                                     dlb::stats::Rng& rng) const {
  CallStats& slot = stats_.local();
  const std::int64_t start = now_ns();
  const dlb::MachineId target = inner_->place(view, job, rng);
  slot.busy_ns += now_ns() - start;
  ++slot.calls;
  return target;
}

void TimedTransport::set_handler(FrameHandler handler) {
  inner_->set_handler(
      [this, handler = std::move(handler)](const dlb::net::Frame& frame) {
        const std::int64_t start = now_ns();
        ++handler_depth_;
        handler(frame);
        --handler_depth_;
        if (handler_depth_ == 0) stats_.handler_ns += now_ns() - start;
      });
}

void TimedTransport::send(const dlb::net::Frame& frame) {
  const std::int64_t start = now_ns();
  inner_->send(frame);
  const std::int64_t took = now_ns() - start;
  stats_.send_ns += took;
  if (handler_depth_ > 0) stats_.send_in_handler_ns += took;
  ++stats_.frames_sent;
  stats_.bytes_sent += dlb::net::kFrameHeaderSize + frame.payload.size();
  if (captured_.size() < capture_) captured_.push_back(frame);
}

void TimedTransport::schedule_after(double delay, TimerCallback callback) {
  // Timer callbacks are protocol work (retransmissions), timed like
  // frame handlers.
  inner_->schedule_after(
      delay, [this, callback = std::move(callback)]() {
        const std::int64_t start = now_ns();
        ++handler_depth_;
        callback();
        --handler_depth_;
        if (handler_depth_ == 0) stats_.handler_ns += now_ns() - start;
      });
}

std::size_t TimedTransport::poll(double max_wait) {
  const std::int64_t start = now_ns();
  const std::size_t processed = inner_->poll(max_wait);
  stats_.poll_ns += now_ns() - start;
  ++stats_.polls;
  if (processed == 0) ++stats_.empty_polls;
  return processed;
}

}  // namespace perfbench
