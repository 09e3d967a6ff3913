#pragma once

// The benchmark's workloads. Each one generates its inputs from the seed,
// persists the instance as a `.dlbi` file (set-up), and then runs passes:
// one pass is the end-to-end path a user pays for — open the `.dlbi`,
// build the schedule, run the engine, produce the finished report. A pass
// also checks its outputs; a traced pass additionally installs the layer
// decorators and fills the per-layer numbers.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One end-to-end pass.
struct Pass {
  double run_s = 0.0;     ///< `.dlbi` path to finished report.
  double connect_s = 0.0;  ///< Set-up paid per pass (socket mesh), not in run_s.
  double engine_s = 0.0;  ///< Wall time of the engine call alone.

  // Deterministic outputs, equal on every pass of one seed.
  std::string digest;  ///< Report JSON, fingerprint and derived values.
  double sessions = 0.0;    ///< Pairwise sessions / exchanges executed.
  double migrations = 0.0;  ///< Job moves.
  double events = 0.0;      ///< Engine events (see README.md).
  double attempted = 0.0;   ///< Sessions attempted (abandoned ones included).
  double wasted = 0.0;      ///< Attempted sessions that moved no job.
  double cmax = 0.0;
  double lower_bound = 0.0;
  double response_mean = 0.0;
  double response_p99 = 0.0;

  /// Per-session wall times in microseconds (fleet_unix: one per session;
  /// elsewhere the pass's engine time per session).
  std::vector<double> session_us;

  /// Traced passes: per-layer metric values and the rows of the "where
  /// run_s went" table (seconds, in table order).
  std::map<std::string, double> layer;
  std::vector<std::pair<std::string, double>> where;

  /// Failed correctness checks (empty = the pass is correct).
  std::vector<std::string> errors;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Generates the inputs from the seed and writes the `.dlbi` file (and
  /// any reference outputs). Returns its wall time in seconds; called
  /// several times per run, each call producing identical files.
  virtual double setup() = 0;

  /// Runs one end-to-end pass; `traced` installs the layer decorators.
  virtual Pass pass(bool traced) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      const std::string& dir);

[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace perfbench
