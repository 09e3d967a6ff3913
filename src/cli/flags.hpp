#pragma once

// The flag groups and output writers dlbsim and dlbd share, each defined
// once: a new flag, error shape or file rule lands here, not per command.
//
// Error convention: a bad flag value throws std::invalid_argument (a usage
// error, exit 2); everything else is a runtime error (exit 1). An input
// file whose contents a rule refuses throws std::runtime_error (InputFlag
// rethrows an Instance rule's std::invalid_argument as one; dlbsim's
// run_command reports a dist::CheckpointMismatch from a --resume file and
// serve's dist::ServiceTimeRefused from --in the same way), and an output
// file that cannot be written throws std::runtime_error("cannot write
// PATH"), which each tool reports as "<tool>: cannot write PATH".

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "core/instance_store.hpp"
#include "dist/peer_selector.hpp"
#include "net/fault.hpp"
#include "obs/obs.hpp"
#include "pairwise/pair_kernel.hpp"
#include "stats/json.hpp"

namespace dlb::cli {

/// `--in FILE`, text .inst or binary .dlbi. The path is read with the
/// other flags; load() runs once the command has rejected unknown
/// options, so a typo is reported before any I/O.
class InputFlag {
 public:
  explicit InputFlag(const Args& args) : path_(args.require("in")) {}
  Instance& load();

 private:
  std::string path_;
  std::optional<core::InstanceStore> store_;
};

/// `--alg` / `--peer` against the kernel and selector registries; an
/// unknown name is "unknown --alg 'X' (every|registered|name)".
[[nodiscard]] const pairwise::PairKernel& kernel_by_alg(
    const std::string& alg);
[[nodiscard]] const dist::PeerSelector& selector_by_name(
    const std::string& name);

/// `--fault KIND --fault-p P --fault-seed S` (S defaults to seed + 1): the
/// fault plan `dlbsim transport` and dlbd put on their links.
[[nodiscard]] net::FaultPlan fault_flags(const Args& args,
                                         std::uint64_t seed);
/// "dropped=N delayed=N duplicated=N reordered=N", as both tools print it.
[[nodiscard]] std::string fault_summary(const net::FaultStats& faults);

/// `--trace-json / --metrics-json / --flight-json FILE`: where a run dumps
/// its obs sinks (an empty path is not requested).
struct ObsFlags {
  std::string trace;
  std::string metrics;
  std::string flight;

  explicit ObsFlags(const Args& args);
  [[nodiscard]] bool any() const noexcept {
    return !trace.empty() || !metrics.empty() || !flight.empty();
  }
  /// Writes each requested dump and reports one line per file on
  /// `summary` (dlbsim's stdout; dlbd's log, as its stdout is the command
  /// channel).
  void write(const obs::Metrics& metrics_sink, const obs::Tracer& tracer,
             const obs::FlightRecorder& flight_sink,
             std::ostream& summary) const;
};

/// Opens `path` and lets `fill` write it; throws "cannot write PATH" when
/// the file cannot be opened or written.
void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& fill);

/// A JSON dump, as every dump is written: indented, newline-terminated.
void write_json(const std::string& path, const stats::Json& doc);

/// A `--trace FILE.csv`: `header`, then `row(x)` for x < `rows`; reports
/// "trace written   : PATH (N rows)" on `out`.
void write_trace_csv(
    const std::string& path, const std::vector<std::string>& header,
    std::size_t rows,
    const std::function<std::vector<std::string>(std::size_t)>& row,
    std::ostream& out);

/// %.17g: the shortest form that round-trips a double exactly. Status
/// lines compare these byte for byte across processes and backends.
[[nodiscard]] std::string exact_double(double value);

}  // namespace dlb::cli
