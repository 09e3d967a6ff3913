#include "dist/open_system/open_checkpoint.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "core/text_codec.hpp"

namespace dlb::dist {

Schedule OpenCheckpoint::make_schedule(const Instance& instance) const {
  return FrozenSchedule::make_schedule(instance, "OpenCheckpoint");
}

void OpenCheckpoint::save(std::ostream& out) const {
  out << "dlb-open-checkpoint v1\n";
  out << "seed " << seed << "\n";
  out << "machines " << num_machines << " jobs " << num_jobs
      << " total_arrivals " << total_arrivals << "\n";
  out << "now " << codec::bits_of(now) << " events " << events << " bursts "
      << bursts << "\n";
  out << "submitted " << submitted << " completed " << completed << "\n";
  out << "repair_exchanges " << repair_exchanges << " repair_migrations "
      << repair_migrations << " repair_changed " << repair_changed << "\n";
  out << "place_rng " << place_rng[0] << ' ' << place_rng[1] << ' '
      << place_rng[2] << ' ' << place_rng[3] << "\n";
  out << "repair_rng " << repair_rng[0] << ' ' << repair_rng[1] << ' '
      << repair_rng[2] << ' ' << repair_rng[3] << "\n";
  write_rows(out);
  codec::write_id_row(out, "in_service", in_service, kNoJob);
  codec::write_bits_row(out, "busy_until", busy_until);
  codec::write_bits_row(out, "completion_time", completion_time);
  codec::write_row(out, "queue_seen", queue_seen);
}

OpenCheckpoint OpenCheckpoint::load(std::istream& in) {
  codec::TextReader reader(in, "OpenCheckpoint");
  reader.header("dlb-open-checkpoint");
  OpenCheckpoint ck;
  ck.seed = reader.value<std::uint64_t>("seed");
  ck.num_machines = reader.value<std::size_t>("machines");
  ck.num_jobs = reader.value<std::size_t>("jobs");
  ck.total_arrivals = reader.value<std::size_t>("total_arrivals");
  ck.now = reader.bits("now");
  if (!std::isfinite(ck.now)) reader.fail("non-finite now");
  ck.events = reader.value<std::uint64_t>("events");
  ck.bursts = reader.value<std::uint64_t>("bursts");
  ck.submitted = reader.value<std::size_t>("submitted");
  ck.completed = reader.value<std::size_t>("completed");
  ck.repair_exchanges = reader.value<std::uint64_t>("repair_exchanges");
  ck.repair_migrations = reader.value<std::uint64_t>("repair_migrations");
  ck.repair_changed = reader.value<std::uint64_t>("repair_changed");
  reader.key("place_rng");
  for (auto& word : ck.place_rng) {
    word = reader.next<std::uint64_t>("place_rng state");
  }
  reader.key("repair_rng");
  for (auto& word : ck.repair_rng) {
    word = reader.next<std::uint64_t>("repair_rng state");
  }
  const std::size_t m = ck.num_machines;
  const std::size_t n = ck.num_jobs;
  ck.read_rows(reader);
  ck.in_service = reader.id_row<JobId>(reader.count("in_service", m, true),
                                       n, "in_service", kNoJob);
  ck.busy_until =
      reader.bits_row(reader.count("busy_until", m, true), "busy_until");
  for (const double horizon : ck.busy_until) {
    if (!std::isfinite(horizon)) reader.fail("non-finite entry in busy_until");
  }
  ck.completion_time = reader.bits_row(
      reader.count("completion_time", n, true), "completion_time");
  ck.queue_seen = reader.row<std::uint64_t>(
      reader.count("queue_seen", n, true),
      [&] { return reader.next<std::uint64_t>("queue_seen"); });
  return ck;
}

void OpenCheckpoint::save_file(const std::string& path) const {
  codec::save_file(*this, path, "OpenCheckpoint");
}

OpenCheckpoint OpenCheckpoint::load_file(const std::string& path) {
  return codec::load_file<OpenCheckpoint>(path, "OpenCheckpoint");
}

}  // namespace dlb::dist
