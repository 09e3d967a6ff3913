#include "core/instance_io.hpp"

#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/text_codec.hpp"

namespace dlb::io {

namespace {

/// Group and type ids: any value the id type holds. The Instance rules
/// refuse ids outside the instance.
inline constexpr std::size_t kAnyId =
    std::size_t{std::numeric_limits<std::uint32_t>::max()} + 1;

}  // namespace

void save_instance(const Instance& instance, std::ostream& out) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "dlb-instance v1\n";
  out << "machines " << instance.num_machines() << " groups "
      << instance.num_groups() << " jobs " << instance.num_jobs() << "\n";
  out << "group_of";
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    out << ' ' << instance.group_of(i);
  }
  out << "\nscales";
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    out << ' ' << instance.scale(i);
  }
  out << '\n';
  if (instance.has_job_types()) {
    out << "types";
    for (JobId j = 0; j < instance.num_jobs(); ++j) {
      out << ' ' << instance.job_type(j);
    }
    out << '\n';
  }
  if (instance.has_cost_model()) {
    out << "costmodel";
    for (JobId j = 0; j < instance.num_jobs(); ++j) {
      out << ' ' << cost::dist_spec(instance.cost_model().dist(j));
    }
    out << '\n';
  }
  out << "costs\n";
  for (GroupId g = 0; g < instance.num_groups(); ++g) {
    for (JobId j = 0; j < instance.num_jobs(); ++j) {
      out << (j ? " " : "") << instance.group_cost(g, j);
    }
    out << '\n';
  }
  if (!out) throw std::runtime_error("save_instance: write failed");
}

Instance load_instance(std::istream& in) {
  codec::TextReader reader(in, "Instance");
  reader.header("dlb-instance");
  const auto m = reader.value<std::size_t>("machines");
  const auto g = reader.value<std::size_t>("groups");
  const auto n = reader.value<std::size_t>("jobs");
  // Without jobs the cost rows hold no bytes to run out of, so only this
  // bound stops a claimed group count from sizing the rows.
  if (n == 0 && g > m) {
    reader.fail("groups count " + std::to_string(g) + " exceeds machines " +
                std::to_string(m) + " with no jobs");
  }
  reader.key("group_of");
  auto group_of = reader.row<GroupId>(
      m, [&] { return reader.id<GroupId>(kAnyId, "group_of"); });
  reader.key("scales");
  auto scales =
      reader.row<double>(m, [&] { return reader.next<double>("scales"); });

  auto section = reader.next<std::string>("costs section");
  std::optional<std::vector<JobTypeId>> types;
  if (section == "types") {
    types = reader.row<JobTypeId>(
        n, [&] { return reader.id<JobTypeId>(kAnyId, "types"); });
    section = reader.next<std::string>("costs section");
  }
  std::optional<cost::CostModel> model;
  if (section == "costmodel") {
    std::size_t next_job = 0;
    model.emplace(reader.row<cost::Dist>(n, [&] {
      const std::size_t j = next_job++;
      const auto spec = reader.next<std::string>("costmodel");
      try {
        return cost::parse_dist(spec);
      } catch (const std::invalid_argument& e) {
        reader.fail("costmodel entry for job " + std::to_string(j) + ": " +
                    e.what());
      }
    }));
    section = reader.next<std::string>("costs section");
  }
  if (section != "costs") {
    reader.fail("expected \"costs\" (got \"" + section + "\")");
  }
  auto rows = reader.row<std::vector<Cost>>(g, [&] {
    return reader.row<Cost>(n, [&] { return reader.next<Cost>("costs"); });
  });

  Instance instance(std::move(rows), std::move(group_of), std::move(scales));
  if (types) instance.set_job_types(std::move(*types));
  if (model) instance.set_cost_model(std::move(*model));
  return instance;
}

void save_assignment(const Assignment& assignment, std::ostream& out) {
  out << "dlb-assignment v1\n";
  out << "jobs " << assignment.num_jobs() << '\n';
  for (JobId j = 0; j < assignment.num_jobs(); ++j) {
    if (j) out << ' ';
    if (assignment.is_assigned(j)) {
      out << assignment.machine_of(j);
    } else {
      out << '-';
    }
  }
  out << '\n';
  if (!out) throw std::runtime_error("save_assignment: write failed");
}

Assignment load_assignment(std::istream& in) {
  codec::TextReader reader(in, "Assignment");
  reader.header("dlb-assignment");
  const auto n = reader.value<std::size_t>("jobs");
  return Assignment(reader.id_row<MachineId>(n, kUnassigned, "assignment",
                                             kUnassigned));
}

void save_instance_file(const Instance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("save_instance_file: cannot open " + path);
  }
  save_instance(instance, out);
}

Instance load_instance_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_instance_file: cannot open " + path);
  }
  return load_instance(in);
}

}  // namespace dlb::io
