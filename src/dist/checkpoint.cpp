#include "dist/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/assignment.hpp"
#include "core/text_codec.hpp"

namespace dlb::dist {

namespace {

const char* engine_name(Checkpoint::Engine engine) noexcept {
  return engine == Checkpoint::Engine::kSequential ? "seq" : "parallel";
}

void check_shape(const FrozenSchedule& frozen, const Instance& instance,
                 const std::string& where) {
  if (instance.num_machines() != frozen.num_machines ||
      instance.num_jobs() != frozen.num_jobs) {
    throw CheckpointMismatch(
        where + ": instance shape mismatch (checkpoint is for " +
        std::to_string(frozen.num_machines) + " machines / " +
        std::to_string(frozen.num_jobs) + " jobs, instance has " +
        std::to_string(instance.num_machines()) + " / " +
        std::to_string(instance.num_jobs()) + ")");
  }
}

/// Refuses load bits the assignment cannot explain. Each machine's load is
/// recomputed in ascending job id, which is exact up to (n_i + 1)·u·Σ|p|
/// over its n_i resident jobs. The stored bits are a running sum of every
/// attach and detach the machine saw, so they also carry the rounding of a
/// history the checkpoint does not hold: an empty machine can keep a
/// residue, and a long run drifts by a few ulps. No load can exceed
/// n·max_cost, so one step rounds by at most u·n·max_cost; the bound allows
/// 2^32 such steps.
void check_loads(const FrozenSchedule& frozen, const Instance& instance,
                 const std::string& where) {
  if (frozen.loads.empty()) return;
  const std::size_t m = frozen.num_machines;
  std::vector<Cost> sum(m, 0.0);
  std::vector<Cost> abs_sum(m, 0.0);
  std::vector<std::size_t> count(m, 0);
  for (JobId j = 0; j < frozen.assignment.size(); ++j) {
    const MachineId i = frozen.assignment[j];
    if (i == kUnassigned) continue;
    const Cost p = instance.cost(i, j);
    sum[i] += p;
    abs_sum[i] += std::abs(p);
    ++count[i];
  }
  constexpr Cost kUnitRoundoff = std::numeric_limits<Cost>::epsilon() / 2;
  constexpr Cost kHistorySteps = 4294967296.0;  // 2^32
  const Cost drift = kHistorySteps * kUnitRoundoff *
                     static_cast<Cost>(frozen.num_jobs) * instance.max_cost();
  for (MachineId i = 0; i < m; ++i) {
    const Cost bound =
        static_cast<Cost>(count[i] + 1) * kUnitRoundoff * abs_sum[i] + drift;
    if (!(std::abs(frozen.loads[i] - sum[i]) <= bound)) {
      std::ostringstream message;
      message.precision(17);
      message << where << ": loads[" << i << "] = " << frozen.loads[i]
              << " does not match the assignment, whose jobs sum to "
              << sum[i];
      throw CheckpointMismatch(message.str());
    }
  }
}

}  // namespace

void FrozenSchedule::freeze(const Schedule& schedule) {
  num_machines = schedule.num_machines();
  num_jobs = schedule.num_jobs();
  assignment = schedule.assignment().raw();
  loads.resize(num_machines);
  for (MachineId i = 0; i < num_machines; ++i) loads[i] = schedule.load(i);
}

Schedule FrozenSchedule::make_schedule(const Instance& instance,
                                       const char* type) const {
  const std::string where = std::string(type) + "::make_schedule";
  check_shape(*this, instance, where);
  check_loads(*this, instance, where);
  Schedule schedule(instance, Assignment(assignment));
  if (!loads.empty()) schedule.restore_loads(loads);
  return schedule;
}

void FrozenSchedule::thaw_into(Schedule& schedule) const {
  check_shape(*this, schedule.instance(), "FrozenSchedule::thaw_into");
  check_loads(*this, schedule.instance(), "FrozenSchedule::thaw_into");
  for (JobId job = 0; job < assignment.size(); ++job) {
    if (assignment[job] == kUnassigned) {
      schedule.unassign(job);
    } else {
      schedule.move(job, assignment[job]);
    }
  }
  if (!loads.empty()) schedule.restore_loads(loads);
}

void FrozenSchedule::write_rows(std::ostream& out) const {
  codec::write_id_row(out, "assignment", assignment, kUnassigned);
  codec::write_bits_row(out, "loads", loads);
}

void FrozenSchedule::read_rows(codec::TextReader& reader) {
  assignment = reader.id_row<MachineId>(
      reader.count("assignment", num_jobs, true), num_machines, "assignment",
      kUnassigned);
  loads = reader.bits_row(reader.count("loads", num_machines, true), "loads");
  for (const Cost load : loads) {
    if (!std::isfinite(load)) reader.fail("non-finite entry in loads");
  }
}

Schedule Checkpoint::make_schedule(const Instance& instance) const {
  Schedule schedule = FrozenSchedule::make_schedule(instance, "Checkpoint");
  // A closed run loses no job: one on no machine waits in churn_queue.
  std::vector<std::uint8_t> queued(num_jobs, 0);
  for (const JobId job : churn_queue) {
    if (job < num_jobs) queued[job] = 1;
  }
  for (JobId job = 0; job < assignment.size(); ++job) {
    if (assignment[job] == kUnassigned && queued[job] == 0) {
      throw CheckpointMismatch(
          "Checkpoint::make_schedule: job " + std::to_string(job) +
          " is on no machine and not in churn_queue");
    }
  }
  for (MachineId i = 0; i < live.size(); ++i) {
    if (live[i] == 0) schedule.set_live(i, false);
  }
  return schedule;
}

void Checkpoint::save(std::ostream& out) const {
  out << "dlb-checkpoint v1\n";
  out << "engine " << engine_name(engine) << "\n";
  out << "seed " << seed << "\n";
  out << "machines " << num_machines << " jobs " << num_jobs << "\n";
  out << "rng " << rng_state[0] << ' ' << rng_state[1] << ' ' << rng_state[2]
      << ' ' << rng_state[3] << "\n";
  out << "epochs " << epochs << " next_session " << next_session << "\n";
  out << "exchanges " << exchanges << " changed " << changed_exchanges
      << " migrations " << migrations << "\n";
  out << "conflicts " << conflicts << " peer_retries " << peer_retries
      << "\n";
  out << "initial_makespan " << codec::bits_of(initial_makespan)
      << " best_makespan " << codec::bits_of(best_makespan) << "\n";
  codec::write_row(out, "order", order);
  codec::write_row(out, "live", live);
  write_rows(out);
  out << "churn_cursor " << churn_cursor << "\n";
  codec::write_row(out, "churn_queue", churn_queue);
  out << "churn_counters " << churn.joins << ' ' << churn.drains << ' '
      << churn.crashes << ' ' << churn.orphaned << ' ' << churn.redispatched
      << "\n";
  out << "obs_counters " << obs_counters.size() << "\n";
  for (const auto& [name, value] : obs_counters) {
    out << name << ' ' << value << "\n";
  }
}

Checkpoint Checkpoint::load(std::istream& in) {
  codec::TextReader reader(in, "Checkpoint");
  reader.header("dlb-checkpoint");
  Checkpoint ck;
  const auto kind = reader.value<std::string>("engine");
  if (kind == "seq") {
    ck.engine = Engine::kSequential;
  } else if (kind == "parallel") {
    ck.engine = Engine::kParallel;
  } else {
    reader.fail("unknown engine kind \"" + kind + "\"");
  }
  ck.seed = reader.value<std::uint64_t>("seed");
  ck.num_machines = reader.value<std::size_t>("machines");
  ck.num_jobs = reader.value<std::size_t>("jobs");
  const std::size_t m = ck.num_machines;
  const std::size_t n = ck.num_jobs;
  reader.key("rng");
  for (auto& word : ck.rng_state) {
    word = reader.next<std::uint64_t>("rng state");
  }
  ck.epochs = reader.value<std::uint64_t>("epochs");
  ck.next_session = reader.value<std::uint64_t>("next_session");
  ck.exchanges = reader.value<std::uint64_t>("exchanges");
  ck.changed_exchanges = reader.value<std::uint64_t>("changed");
  ck.migrations = reader.value<std::uint64_t>("migrations");
  ck.conflicts = reader.value<std::uint64_t>("conflicts");
  ck.peer_retries = reader.value<std::uint64_t>("peer_retries");
  ck.initial_makespan = reader.bits("initial_makespan");
  ck.best_makespan = reader.bits("best_makespan");

  ck.order = reader.id_row<MachineId>(reader.count("order", m, false), m,
                                      "order");
  ck.live = reader.row<std::uint8_t>(reader.count("live", m, true), [&] {
    const int bit = reader.next<int>("live mask");
    if (bit != 0 && bit != 1) reader.fail("bad live mask entry");
    return static_cast<std::uint8_t>(bit);
  });
  // The engines rebuild the order from the live set on every mask change,
  // so it names each live machine exactly once and nothing else.
  const auto num_live = static_cast<std::size_t>(
      std::count(ck.live.begin(), ck.live.end(), std::uint8_t{1}));
  if (num_live == 0) reader.fail("live mask has no live machine");
  if (ck.order.size() != num_live) {
    reader.fail("order count " + std::to_string(ck.order.size()) +
                " must equal the " + std::to_string(num_live) +
                " live machines");
  }
  std::vector<std::uint8_t> seen(m, 0);
  for (const MachineId machine : ck.order) {
    if (ck.live[machine] == 0) {
      reader.fail("order names dead machine " + std::to_string(machine));
    }
    if (seen[machine]++ != 0) reader.fail("order repeats a machine");
  }
  ck.read_rows(reader);
  ck.churn_cursor = reader.value<std::size_t>("churn_cursor");
  ck.churn_queue = reader.id_row<JobId>(
      reader.count("churn_queue", n, false), n, "churn queue");
  reader.key("churn_counters");
  for (std::uint64_t* counter :
       {&ck.churn.joins, &ck.churn.drains, &ck.churn.crashes,
        &ck.churn.orphaned, &ck.churn.redispatched}) {
    *counter = reader.next<std::uint64_t>("churn counters");
  }
  ck.obs_counters = reader.row<std::pair<std::string, std::uint64_t>>(
      reader.value<std::size_t>("obs_counters"), [&] {
        auto name = reader.next<std::string>("obs counters");
        return std::pair{std::move(name),
                         reader.next<std::uint64_t>("obs counters")};
      });
  return ck;
}

std::vector<std::pair<std::string, std::uint64_t>> checkpoint_obs_counters(
    std::initializer_list<std::pair<const char*, std::uint64_t>> engine,
    const ChurnCounters& churn) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, value] : engine) {
    if (value != 0) out.emplace_back(name, value);
  }
  if (churn.joins != 0) out.emplace_back("churn.joins", churn.joins);
  if (churn.drains != 0) out.emplace_back("churn.drains", churn.drains);
  if (churn.crashes != 0) out.emplace_back("churn.crashes", churn.crashes);
  if (churn.orphaned != 0) out.emplace_back("churn.orphaned", churn.orphaned);
  if (churn.redispatched != 0) {
    out.emplace_back("churn.redispatched", churn.redispatched);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Checkpoint::save_file(const std::string& path) const {
  codec::save_file(*this, path, "Checkpoint");
}

Checkpoint Checkpoint::load_file(const std::string& path) {
  return codec::load_file<Checkpoint>(path, "Checkpoint");
}

}  // namespace dlb::dist
