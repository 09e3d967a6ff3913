#include "dist/open_system/arrival.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/text_codec.hpp"
#include "stats/rng.hpp"

namespace dlb::dist {

namespace {

[[noreturn]] void invalid(const std::string& field, const std::string& why) {
  throw std::invalid_argument("ArrivalPlan: invalid " + field + ": " + why);
}

[[noreturn]] void invalid_value(const std::string& field,
                                const std::string& why, double got) {
  std::ostringstream detail;
  detail << why << ", got " << got;
  invalid(field, detail.str());
}

bool positive_finite(double v) noexcept {
  return std::isfinite(v) && v > 0.0;
}

/// Fewest arrivals one bursty or diurnal cycle may expect. arrival_times
/// walks the cycle's bins until a unit-rate gap is used up, and a gap is
/// at most -log(2^-53) < 37, so a cycle that expects at least 2^-20
/// arrivals ends every walk within about 37 * 2^20 cycles. A smaller
/// capacity takes longer than any caller waits, and one below a gap's ulp
/// leaves `gap -= avail` unchanged, so the walk would never end.
constexpr double kMinCycleArrivals = 0x1p-20;

void require_cycle_capacity(const std::string& field, double capacity) {
  if (!(capacity >= kMinCycleArrivals)) {
    invalid_value(field,
                  "one cycle must expect at least 2^-20 arrivals "
                  "(rate x duration summed over its bins)",
                  capacity);
  }
}

}  // namespace

const char* arrival_kind_name(ArrivalKind kind) noexcept {
  switch (kind) {
    case ArrivalKind::kNone:
      return "none";
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kBursty:
      return "bursty";
    case ArrivalKind::kDiurnal:
      return "diurnal";
  }
  return "?";
}

ArrivalKind arrival_kind_by_name(const std::string& name) {
  if (name == "none") return ArrivalKind::kNone;
  if (name == "poisson") return ArrivalKind::kPoisson;
  if (name == "bursty") return ArrivalKind::kBursty;
  if (name == "diurnal") return ArrivalKind::kDiurnal;
  throw std::invalid_argument("unknown arrival kind: " + name +
                              " (expected none, poisson, bursty, or diurnal)");
}

void ArrivalPlan::validate() const {
  switch (kind) {
    case ArrivalKind::kNone:
      return;
    case ArrivalKind::kPoisson:
      if (!positive_finite(rate)) {
        invalid_value("rate", "must be > 0 and finite", rate);
      }
      return;
    case ArrivalKind::kBursty:
      if (!positive_finite(rate)) {
        invalid_value("rate", "must be > 0 and finite", rate);
      }
      if (!std::isfinite(off_rate) || off_rate < 0.0) {
        invalid_value("off_rate", "must be >= 0 and finite", off_rate);
      }
      if (!positive_finite(on_duration)) {
        invalid_value("on_duration", "must be > 0 and finite", on_duration);
      }
      if (!positive_finite(off_duration)) {
        invalid_value("off_duration", "must be > 0 and finite", off_duration);
      }
      require_cycle_capacity("rate",
                             rate * on_duration + off_rate * off_duration);
      return;
    case ArrivalKind::kDiurnal: {
      if (trace.empty()) invalid("trace", "must have at least one bin");
      bool any_positive = false;
      for (std::size_t k = 0; k < trace.size(); ++k) {
        if (!std::isfinite(trace[k]) || trace[k] < 0.0) {
          invalid_value("trace[" + std::to_string(k) + "]",
                        "must be >= 0 and finite", trace[k]);
        }
        if (trace[k] > 0.0) any_positive = true;
      }
      if (!any_positive) {
        invalid("trace", "every bin has rate 0, so no job would ever arrive");
      }
      if (!positive_finite(bin_duration)) {
        invalid_value("bin_duration", "must be > 0 and finite", bin_duration);
      }
      double capacity = 0.0;
      for (const double r : trace) capacity += r * bin_duration;
      require_cycle_capacity("trace", capacity);
      return;
    }
  }
  invalid("kind", "unknown arrival kind");
}

double ArrivalPlan::rate_at(double t) const {
  switch (kind) {
    case ArrivalKind::kNone:
      return 0.0;
    case ArrivalKind::kPoisson:
      return rate;
    case ArrivalKind::kBursty: {
      const double period = on_duration + off_duration;
      const double phase = std::fmod(t, period);
      return phase < on_duration ? rate : off_rate;
    }
    case ArrivalKind::kDiurnal: {
      const auto bin = static_cast<std::size_t>(
          std::fmod(std::floor(t / bin_duration),
                    static_cast<double>(trace.size())));
      return trace[bin < trace.size() ? bin : 0];
    }
  }
  return 0.0;
}

std::vector<double> ArrivalPlan::arrival_times(std::size_t count) const {
  validate();
  if (kind == ArrivalKind::kNone) {
    invalid("kind", "a trivial plan has no arrival times");
  }
  // Bin b of the piecewise-constant rate function (bursty phases alternate,
  // diurnal bins cycle; Poisson is one bin of infinite duration).
  const auto bin_of = [&](std::uint64_t b) -> std::pair<double, double> {
    switch (kind) {
      case ArrivalKind::kPoisson:
        return {rate, std::numeric_limits<double>::infinity()};
      case ArrivalKind::kBursty:
        return (b % 2 == 0) ? std::pair{rate, on_duration}
                            : std::pair{off_rate, off_duration};
      case ArrivalKind::kDiurnal:
        return {trace[b % trace.size()], bin_duration};
      case ArrivalKind::kNone:
        break;
    }
    return {0.0, 0.0};
  };

  // Thinning-free time change: a unit-rate Poisson process pushed through
  // the inverse cumulative intensity Lambda^-1 has exactly the plan's
  // piecewise-constant rate. Gap k of the unit process is its own child
  // stream, so arrival k is a pure function of (plan, k) — resume safety.
  std::vector<double> times;
  times.reserve(count);
  std::uint64_t bin = 0;
  double bin_start = 0.0;     // real time at the current bin's left edge
  double unit_into_bin = 0.0; // unit intensity already consumed in the bin
  double prev = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    double gap = stats::Rng::stream(seed, k).exponential(1.0);
    for (;;) {
      const auto [r, d] = bin_of(bin);
      const double capacity = r * d;  // inf for the Poisson bin
      const double avail = capacity - unit_into_bin;
      if (gap < avail) {
        unit_into_bin += gap;
        break;
      }
      gap -= avail;
      bin_start += d;
      unit_into_bin = 0.0;
      ++bin;
    }
    const double r = bin_of(bin).first;
    // Clamp to the previous arrival: crossing a bin edge can lose an ulp,
    // and the engine's oracles rely on a non-decreasing sequence.
    prev = std::max(prev, bin_start + unit_into_bin / r);
    // A finite but subnormal rate overflows the division; an infinite
    // arrival time would stall the engine's repair clock forever.
    if (!std::isfinite(prev)) {
      invalid_value("rate",
                    "puts arrival " + std::to_string(k) +
                        " at a non-finite time",
                    r);
    }
    times.push_back(prev);
  }
  return times;
}

ArrivalPlan ArrivalPlan::poisson(double rate, std::uint64_t seed) {
  ArrivalPlan plan;
  plan.kind = ArrivalKind::kPoisson;
  plan.seed = seed;
  plan.rate = rate;
  plan.validate();
  return plan;
}

ArrivalPlan ArrivalPlan::bursty(double rate, double off_rate,
                                double on_duration, double off_duration,
                                std::uint64_t seed) {
  ArrivalPlan plan;
  plan.kind = ArrivalKind::kBursty;
  plan.seed = seed;
  plan.rate = rate;
  plan.off_rate = off_rate;
  plan.on_duration = on_duration;
  plan.off_duration = off_duration;
  plan.validate();
  return plan;
}

ArrivalPlan ArrivalPlan::diurnal(std::vector<double> trace,
                                 double bin_duration, std::uint64_t seed) {
  ArrivalPlan plan;
  plan.kind = ArrivalKind::kDiurnal;
  plan.seed = seed;
  plan.trace = std::move(trace);
  plan.bin_duration = bin_duration;
  plan.validate();
  return plan;
}

void ArrivalPlan::save(std::ostream& out) const {
  using codec::bits_of;
  out << "dlb-arrival-plan v1\n";
  out << "kind " << arrival_kind_name(kind) << "\n";
  out << "seed " << seed << "\n";
  out << "rate " << bits_of(rate) << " off_rate " << bits_of(off_rate)
      << "\n";
  out << "on_duration " << bits_of(on_duration) << " off_duration "
      << bits_of(off_duration) << "\n";
  out << "bin_duration " << bits_of(bin_duration) << "\n";
  codec::write_bits_row(out, "trace", trace);
}

ArrivalPlan ArrivalPlan::load(std::istream& in) {
  codec::TextReader reader(in, "ArrivalPlan");
  reader.header("dlb-arrival-plan");
  ArrivalPlan plan;
  const auto kind = reader.value<std::string>("kind");
  try {
    plan.kind = arrival_kind_by_name(kind);
  } catch (const std::invalid_argument& e) {
    reader.fail(e.what());
  }
  plan.seed = reader.value<std::uint64_t>("seed");
  plan.rate = reader.bits("rate");
  plan.off_rate = reader.bits("off_rate");
  plan.on_duration = reader.bits("on_duration");
  plan.off_duration = reader.bits("off_duration");
  plan.bin_duration = reader.bits("bin_duration");
  plan.trace = reader.bits_row(reader.value<std::size_t>("trace"), "trace");
  return plan;
}

void ArrivalPlan::save_file(const std::string& path) const {
  codec::save_file(*this, path, "ArrivalPlan");
}

ArrivalPlan ArrivalPlan::load_file(const std::string& path) {
  return codec::load_file<ArrivalPlan>(path, "ArrivalPlan");
}

}  // namespace dlb::dist
