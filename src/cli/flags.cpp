#include "cli/flags.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/name_registry.hpp"
#include "dist/selector_registry.hpp"
#include "pairwise/kernel_registry.hpp"
#include "stats/csv.hpp"

namespace dlb::cli {

namespace {

template <typename T>
const T& by_name(const NameRegistry<T>& registry, const char* flag,
                 const std::string& name) {
  if (!registry.contains(name)) {
    throw std::invalid_argument("unknown --" + std::string(flag) + " '" +
                                name + "' (" + registry.names_joined() + ")");
  }
  return registry.get(name);
}

}  // namespace

Instance& InputFlag::load() {
  // A value the file holds is input, not a flag: a rule of Instance that
  // refuses it (std::invalid_argument) is a runtime error, exit 1.
  try {
    store_ = core::load_instance(path_);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(e.what());
  }
  return store_->mutable_instance();
}

const pairwise::PairKernel& kernel_by_alg(const std::string& alg) {
  return by_name(pairwise::kernel_registry(), "alg", alg);
}

const dist::PeerSelector& selector_by_name(const std::string& name) {
  return by_name(dist::selector_registry(), "peer", name);
}

net::FaultPlan fault_flags(const Args& args, std::uint64_t seed) {
  const std::string kind = args.get("fault", "none");
  const double p = args.get_double("fault-p", 0.1);
  return net::fault_plan_by_name(kind, p,
                                 args.get_count("fault-seed", seed + 1));
}

std::string fault_summary(const net::FaultStats& faults) {
  return "dropped=" + std::to_string(faults.dropped) +
         " delayed=" + std::to_string(faults.delayed) +
         " duplicated=" + std::to_string(faults.duplicated) +
         " reordered=" + std::to_string(faults.reordered);
}

ObsFlags::ObsFlags(const Args& args)
    : trace(args.get("trace-json", "")),
      metrics(args.get("metrics-json", "")),
      flight(args.get("flight-json", "")) {}

void ObsFlags::write(const obs::Metrics& metrics_sink,
                     const obs::Tracer& tracer,
                     const obs::FlightRecorder& flight_sink,
                     std::ostream& summary) const {
  const auto counted = [](std::uint64_t size, std::uint64_t dropped,
                          const char* what) {
    std::string text = " (" + std::to_string(size) + " " + what;
    if (dropped > 0) text += ", " + std::to_string(dropped) + " dropped";
    return text + ")\n";
  };
  if (!trace.empty()) {
    write_json(trace, tracer.to_chrome_json());
    summary << "trace-json      : " << trace
            << counted(tracer.size(), tracer.dropped(), "events");
  }
  if (!metrics.empty()) {
    write_json(metrics, metrics_sink.snapshot());
    summary << "metrics-json    : " << metrics << "\n";
  }
  if (!flight.empty()) {
    write_json(flight, flight_sink.to_json());
    summary << "flight-json     : " << flight
            << counted(flight_sink.size(), flight_sink.dropped(), "samples");
  }
}

void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& fill) {
  std::ofstream file(path);
  if (file) fill(file);
  file.close();
  if (!file) throw std::runtime_error("cannot write " + path);
}

void write_json(const std::string& path, const stats::Json& doc) {
  write_file(path, [&](std::ostream& file) { file << doc.dump(2) << "\n"; });
}

void write_trace_csv(
    const std::string& path, const std::vector<std::string>& header,
    std::size_t rows,
    const std::function<std::vector<std::string>(std::size_t)>& row,
    std::ostream& out) {
  write_file(path, [&](std::ostream& file) {
    stats::CsvWriter csv(file);
    csv.header(header);
    for (std::size_t x = 0; x < rows; ++x) csv.row(row(x));
  });
  out << "trace written   : " << path << " (" << rows << " rows)\n";
}

std::string exact_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace dlb::cli
