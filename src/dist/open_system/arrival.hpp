#pragma once

// ArrivalPlan: the seeded arrival process of the open-system workload
// (ROADMAP item 3). A plan describes a piecewise-constant arrival *rate*
// function — constant (Poisson), alternating on/off phases (bursty), or a
// cyclic per-bin trace (diurnal) — and maps it onto concrete arrival times
// by inverting the cumulative intensity of a unit-rate Poisson process.
// The k-th inter-arrival draw comes from its own Rng stream of the plan
// seed, so arrival time k is a pure function of (plan, k): the open-system
// engine resumes a checkpointed run by remembering nothing but how many
// arrivals it has consumed.
//
// Text persistence follows the ChurnPlan family ("dlb-arrival-plan v1");
// rates and durations travel as IEEE-754 bit patterns so a round-trip
// through disk cannot perturb a single bit.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dlb::dist {

enum class ArrivalKind : std::uint8_t {
  kNone,     ///< No arrivals: OpenSystemEngine rejects this plan.
  kPoisson,  ///< Constant rate.
  kBursty,   ///< Alternating on/off phases with separate rates.
  kDiurnal,  ///< Cyclic per-bin rate trace (a day of user traffic).
};

[[nodiscard]] const char* arrival_kind_name(ArrivalKind kind) noexcept;

/// Parses a kind name as printed by arrival_kind_name; throws
/// std::invalid_argument on unknown names.
[[nodiscard]] ArrivalKind arrival_kind_by_name(const std::string& name);

struct ArrivalPlan {
  ArrivalKind kind = ArrivalKind::kNone;
  /// Seed of the per-arrival inter-arrival streams.
  std::uint64_t seed = 0;
  /// Poisson: the constant rate. Bursty: the on-phase rate.
  double rate = 1.0;
  /// Bursty: the off-phase rate (0 = fully silent between bursts).
  double off_rate = 0.0;
  /// Bursty: phase lengths in virtual time.
  double on_duration = 1.0;
  double off_duration = 1.0;
  /// Diurnal: per-bin rates, cycled forever.
  std::vector<double> trace;
  /// Diurnal: length of one trace bin in virtual time.
  double bin_duration = 1.0;

  /// A plan with no arrivals at all; OpenSystemEngine rejects it (and a
  /// null pointer).
  [[nodiscard]] bool trivial() const noexcept {
    return kind == ArrivalKind::kNone;
  }

  /// Throws std::invalid_argument naming the offending field, e.g.
  /// "ArrivalPlan: invalid rate: must be > 0 and finite, got 0". A bursty
  /// or diurnal cycle must expect at least 2^-20 arrivals (`rate` or
  /// `trace`), or arrival_times could not finish.
  void validate() const;

  /// The arrival rate at virtual time t (piecewise constant).
  [[nodiscard]] double rate_at(double t) const;

  /// The first `count` arrival times, non-decreasing. Pure function of
  /// (plan, count): element k never changes once drawn, so a resumed run
  /// regenerates the identical schedule. Requires a validated,
  /// non-trivial plan. Throws std::invalid_argument naming `rate` when a
  /// rate too small to divide by (say 1e-310) makes a time non-finite.
  [[nodiscard]] std::vector<double> arrival_times(std::size_t count) const;

  [[nodiscard]] static ArrivalPlan poisson(double rate, std::uint64_t seed);
  [[nodiscard]] static ArrivalPlan bursty(double rate, double off_rate,
                                          double on_duration,
                                          double off_duration,
                                          std::uint64_t seed);
  [[nodiscard]] static ArrivalPlan diurnal(std::vector<double> trace,
                                           double bin_duration,
                                           std::uint64_t seed);

  void save(std::ostream& out) const;
  [[nodiscard]] static ArrivalPlan load(std::istream& in);
  void save_file(const std::string& path) const;
  [[nodiscard]] static ArrivalPlan load_file(const std::string& path);

  friend bool operator==(const ArrivalPlan&, const ArrivalPlan&) = default;
};

}  // namespace dlb::dist
