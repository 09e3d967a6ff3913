#include "core/instance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

namespace dlb {

namespace {

struct TypeScan {
  std::vector<JobId> first;  // the first job of each type; size = type count
  std::string error;         // empty when the ids obey the rule
};

/// The job-type rule: every id is below the job count, checked before
/// anything is sized by an id, and the ids are dense.
TypeScan scan_job_types(std::span<const JobTypeId> types) {
  TypeScan scan;
  std::size_t num_types = 0;
  for (std::size_t j = 0; j < types.size(); ++j) {
    if (types[j] >= types.size()) {
      scan.error = "job " + std::to_string(j) + " has type " +
                   std::to_string(types[j]) + ", not below the job count " +
                   std::to_string(types.size());
      return scan;
    }
    num_types = std::max<std::size_t>(num_types, types[j] + std::size_t{1});
  }
  scan.first.assign(num_types, kUnassigned);
  for (std::size_t j = 0; j < types.size(); ++j) {
    if (scan.first[types[j]] == kUnassigned) {
      scan.first[types[j]] = static_cast<JobId>(j);
    }
  }
  const auto unused = std::count(scan.first.begin(), scan.first.end(),
                                 kUnassigned);
  if (unused != 0) {
    scan.error = "type ids must be dense: " + std::to_string(unused) +
                 " of " + std::to_string(num_types) + " types have no job";
  }
  return scan;
}

/// True when equal-typed jobs carry equal distributions (`first` as
/// scan_job_types returns it).
bool types_share_dists(std::span<const JobTypeId> types,
                       const std::vector<JobId>& first,
                       const cost::CostModel& model) {
  for (std::size_t j = 0; j < types.size(); ++j) {
    if (!(model.dist(static_cast<JobId>(j)) == model.dist(first[types[j]]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

Instance::Instance(std::vector<std::vector<Cost>> group_costs,
                   std::vector<GroupId> group_of, std::vector<double> scales)
    : owned_group_of_(std::move(group_of)), owned_scales_(std::move(scales)) {
  if (group_costs.empty()) {
    throw std::invalid_argument("Instance: need at least one group");
  }
  if (owned_group_of_.empty()) {
    throw std::invalid_argument("Instance: need at least one machine");
  }
  num_groups_ = group_costs.size();
  num_machines_ = owned_group_of_.size();
  num_jobs_ = group_costs.front().size();
  for (const auto& row : group_costs) {
    if (row.size() != num_jobs_) {
      throw std::invalid_argument("Instance: ragged group cost rows");
    }
  }
  owned_costs_.reserve(num_groups_ * num_jobs_);
  for (const auto& row : group_costs) {
    owned_costs_.insert(owned_costs_.end(), row.begin(), row.end());
  }
  for (Cost c : owned_costs_) {
    if (!(c > 0.0) || !std::isfinite(c)) {
      throw std::invalid_argument(
          "Instance: costs must be positive and finite");
    }
  }
  for (GroupId g : owned_group_of_) {
    if (g >= num_groups_) {
      throw std::invalid_argument("Instance: machine references unknown group");
    }
  }
  if (owned_scales_.empty()) {
    owned_scales_.assign(num_machines_, 1.0);
  } else if (owned_scales_.size() != num_machines_) {
    throw std::invalid_argument("Instance: scales size != machine count");
  }
  for (double s : owned_scales_) {
    if (!(s > 0.0) || !std::isfinite(s)) {
      throw std::invalid_argument("Instance: scales must be positive finite");
    }
  }
  costs_ = owned_costs_.data();
  group_of_ = owned_group_of_.data();
  scales_ = owned_scales_.data();
  compute_caches();
}

Instance::Instance(Borrowed, const Cost* costs, const GroupId* group_of,
                   const double* scales, const JobTypeId* types,
                   std::size_t num_machines, std::size_t num_groups,
                   std::size_t num_jobs, std::size_t num_job_types,
                   Cost max_cost, bool unit_scales)
    : costs_(costs),
      group_of_(group_of),
      scales_(scales),
      types_(types),
      borrowed_(true),
      num_machines_(num_machines),
      num_groups_(num_groups),
      num_jobs_(num_jobs),
      num_job_types_(num_job_types),
      max_cost_(max_cost),
      unit_scales_(unit_scales) {
  if (num_groups_ == 0) {
    throw std::invalid_argument("Instance: need at least one group");
  }
  if (num_machines_ == 0) {
    throw std::invalid_argument("Instance: need at least one machine");
  }
  bool all_unit = true;
  for (std::size_t i = 0; i < num_machines_; ++i) {
    if (group_of_[i] >= num_groups_) {
      throw InstanceFieldError(
          "group_of", "machine " + std::to_string(i) +
                          " references unknown group " +
                          std::to_string(group_of_[i]));
    }
    if (!(scales_[i] > 0.0) || !std::isfinite(scales_[i])) {
      throw InstanceFieldError(
          "scales", "machine " + std::to_string(i) + " has scale " +
                        std::to_string(scales_[i]) +
                        " (must be finite and > 0)");
    }
    all_unit = all_unit && scales_[i] == 1.0;
  }
  if (all_unit != unit_scales_) {
    throw InstanceFieldError(
        "unit_scales", std::string("header says ") +
                           (unit_scales_ ? "1" : "0") +
                           " but the scales section says " +
                           (all_unit ? "1" : "0"));
  }
  if (types_ != nullptr) {
    if (num_job_types_ > num_jobs_) {
      throw InstanceFieldError(
          "num_job_types", std::to_string(num_job_types_) + " types for " +
                               std::to_string(num_jobs_) + " jobs");
    }
    const TypeScan scan = scan_job_types({types_, num_jobs_});
    if (!scan.error.empty()) throw InstanceFieldError("types", scan.error);
    if (scan.first.size() != num_job_types_) {
      throw InstanceFieldError(
          "types", std::to_string(scan.first.size()) +
                       " types used, the header says " +
                       std::to_string(num_job_types_));
    }
  }
  build_machines_by_group();
}

Instance::Instance(const Instance& other)
    : owned_costs_(other.owned_costs_),
      owned_group_of_(other.owned_group_of_),
      owned_scales_(other.owned_scales_),
      owned_types_(other.owned_types_),
      costs_(other.costs_),
      group_of_(other.group_of_),
      scales_(other.scales_),
      types_(other.types_),
      borrowed_(other.borrowed_),
      num_machines_(other.num_machines_),
      num_groups_(other.num_groups_),
      num_jobs_(other.num_jobs_),
      machines_by_group_(other.machines_by_group_),
      group_min_scale_(other.group_min_scale_),
      num_job_types_(other.num_job_types_),
      max_cost_(other.max_cost_),
      unit_scales_(other.unit_scales_),
      cost_model_(other.cost_model_) {
  rebind();
}

Instance& Instance::operator=(const Instance& other) {
  if (this != &other) {
    Instance tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

void Instance::rebind() {
  if (!borrowed_) {
    costs_ = owned_costs_.data();
    group_of_ = owned_group_of_.data();
    scales_ = owned_scales_.data();
  }
  if (!owned_types_.empty()) types_ = owned_types_.data();
}

void Instance::build_machines_by_group() {
  machines_by_group_.assign(num_groups_, {});
  group_min_scale_.assign(num_groups_,
                          std::numeric_limits<double>::infinity());
  for (MachineId i = 0; i < num_machines_; ++i) {
    const GroupId g = group_of_[i];
    machines_by_group_[g].push_back(i);
    group_min_scale_[g] = std::min(group_min_scale_[g], scales_[i]);
  }
}

void Instance::compute_caches() {
  build_machines_by_group();
  unit_scales_ = std::all_of(scales_, scales_ + num_machines_,
                             [](double s) { return s == 1.0; });
  max_cost_ = 0.0;
  // The true max over (i, j) needs per-group max scale; compute exactly.
  std::vector<double> group_max_scale(num_groups_, 0.0);
  for (MachineId i = 0; i < num_machines_; ++i) {
    group_max_scale[group_of_[i]] =
        std::max(group_max_scale[group_of_[i]], scales_[i]);
  }
  for (GroupId g = 0; g < num_groups_; ++g) {
    // Empty groups (no machines) and empty rows (zero jobs) contribute no
    // (machine, job) pair — skipping them also keeps max_element legal.
    if (machines_by_group_[g].empty() || num_jobs_ == 0) continue;
    const auto row = group_row(g);
    const Cost row_max = *std::max_element(row.begin(), row.end());
    max_cost_ = std::max(max_cost_, row_max * group_max_scale[g]);
  }
}

Instance Instance::identical(std::size_t num_machines,
                             std::vector<Cost> job_costs) {
  if (num_machines == 0) {
    throw std::invalid_argument("Instance::identical: need machines");
  }
  std::vector<std::vector<Cost>> rows;
  rows.push_back(std::move(job_costs));
  return Instance(std::move(rows),
                  std::vector<GroupId>(num_machines, 0));
}

Instance Instance::related(std::vector<double> speeds,
                           std::vector<Cost> base_costs) {
  if (speeds.empty()) {
    throw std::invalid_argument("Instance::related: need machines");
  }
  std::vector<double> scales(speeds.size());
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    if (!(speeds[i] > 0.0)) {
      throw std::invalid_argument("Instance::related: speeds must be > 0");
    }
    scales[i] = 1.0 / speeds[i];
  }
  std::vector<std::vector<Cost>> rows;
  rows.push_back(std::move(base_costs));
  return Instance(std::move(rows), std::vector<GroupId>(speeds.size(), 0),
                  std::move(scales));
}

Instance Instance::clustered(const std::vector<std::size_t>& cluster_sizes,
                             std::vector<std::vector<Cost>> cluster_costs) {
  if (cluster_sizes.size() != cluster_costs.size()) {
    throw std::invalid_argument(
        "Instance::clustered: sizes/costs length mismatch");
  }
  std::vector<GroupId> group_of;
  for (GroupId g = 0; g < cluster_sizes.size(); ++g) {
    if (cluster_sizes[g] == 0) {
      throw std::invalid_argument("Instance::clustered: empty cluster");
    }
    group_of.insert(group_of.end(), cluster_sizes[g], g);
  }
  return Instance(std::move(cluster_costs), std::move(group_of));
}

Instance Instance::unrelated(std::vector<std::vector<Cost>> costs) {
  std::vector<GroupId> group_of(costs.size());
  std::iota(group_of.begin(), group_of.end(), 0);
  return Instance(std::move(costs), std::move(group_of));
}

Cost Instance::min_cost_of_job(JobId j) const {
  Cost best = std::numeric_limits<Cost>::infinity();
  for (GroupId g = 0; g < num_groups_; ++g) {
    if (machines_by_group_[g].empty()) continue;
    best = std::min(best, group_cost(g, j) * group_min_scale_[g]);
  }
  return best;
}

Cost Instance::total_min_work() const {
  Cost total = 0.0;
  for (JobId j = 0; j < num_jobs_; ++j) total += min_cost_of_job(j);
  return total;
}

void Instance::set_job_types(std::vector<JobTypeId> type_of) {
  if (type_of.size() != num_jobs_) {
    throw std::invalid_argument("Instance::set_job_types: size mismatch");
  }
  const TypeScan scan = scan_job_types(type_of);
  if (!scan.error.empty()) {
    throw std::invalid_argument("Instance::set_job_types: " + scan.error);
  }
  // Verify the defining property of job types on the group cost rows
  // (scales are per-machine, so equal group rows imply equal costs).
  for (JobId j = 0; j < num_jobs_; ++j) {
    for (GroupId g = 0; g < num_groups(); ++g) {
      if (group_cost(g, j) != group_cost(g, scan.first[type_of[j]])) {
        throw std::invalid_argument(
            "Instance::set_job_types: jobs of equal type must have equal "
            "cost rows");
      }
    }
  }
  if (cost_model_ && !types_share_dists(type_of, scan.first, *cost_model_)) {
    throw std::invalid_argument(
        "Instance::set_job_types: jobs of equal type must have equal size "
        "distributions");
  }
  owned_types_ = std::move(type_of);
  types_ = owned_types_.empty() ? nullptr : owned_types_.data();
  num_job_types_ = scan.first.size();
}

void Instance::set_cost_model(cost::CostModel model) {
  if (model.num_jobs() != num_jobs_) {
    throw std::invalid_argument(
        "Instance::set_cost_model: one distribution per job required");
  }
  // Risk-adjusting multiplies each cost column by a per-job factor; types
  // survive that only if equal-typed jobs share a distribution.
  if (has_job_types() &&
      !types_share_dists({types_, num_jobs_},
                         scan_job_types({types_, num_jobs_}).first, model)) {
    throw std::invalid_argument(
        "Instance::set_cost_model: jobs of equal type must have equal "
        "size distributions");
  }
  cost_model_ = std::move(model);
}

std::size_t Instance::infer_job_types() {
  std::map<std::vector<Cost>, JobTypeId> seen;
  std::vector<JobTypeId> type_of(num_jobs_);
  for (JobId j = 0; j < num_jobs_; ++j) {
    std::vector<Cost> column(num_groups());
    for (GroupId g = 0; g < num_groups(); ++g) column[g] = group_cost(g, j);
    const auto [it, inserted] =
        seen.emplace(std::move(column), static_cast<JobTypeId>(seen.size()));
    type_of[j] = it->second;
  }
  set_job_types(std::move(type_of));
  return num_job_types_;
}

}  // namespace dlb
