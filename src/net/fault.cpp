#include "net/fault.hpp"

#include <stdexcept>

namespace dlb::net {

FaultPlan FaultPlan::drops(double p, std::uint64_t seed) {
  FaultPlan plan;
  plan.drop_probability = p;
  plan.seed = seed;
  return plan;
}

FaultPlan FaultPlan::delays(double p, std::uint64_t seed) {
  FaultPlan plan;
  plan.delay_probability = p;
  plan.seed = seed;
  return plan;
}

FaultPlan FaultPlan::duplicates(double p, std::uint64_t seed) {
  FaultPlan plan;
  plan.duplicate_probability = p;
  plan.seed = seed;
  return plan;
}

FaultPlan FaultPlan::reorders(double p, std::uint64_t seed) {
  FaultPlan plan;
  plan.reorder_probability = p;
  plan.seed = seed;
  return plan;
}

FaultPlan FaultPlan::chaos(double p, std::uint64_t seed) {
  FaultPlan plan;
  plan.drop_probability = p;
  plan.delay_probability = p;
  plan.duplicate_probability = p;
  plan.reorder_probability = p;
  plan.seed = seed;
  return plan;
}

void FaultInjector::set_plan(const FaultPlan* plan) {
  plan_ = (plan != nullptr && !plan->trivial()) ? plan : nullptr;
  rng_ = plan_ != nullptr ? stats::Rng::stream(plan_->seed, stream_)
                          : stats::Rng(0);
  stats_ = FaultStats{};
  held_.clear();
  resolve_counters();
}

void FaultInjector::set_metrics(obs::Metrics* metrics) {
  metrics_ = metrics;
  resolve_counters();
}

void FaultInjector::resolve_counters() {
  if (metrics_ == nullptr || plan_ == nullptr) {
    c_dropped_ = c_delayed_ = c_duplicated_ = c_reordered_ = nullptr;
    return;
  }
  c_dropped_ = &metrics_->counter(prefix_ + "dropped");
  c_delayed_ = &metrics_->counter(prefix_ + "delayed");
  c_duplicated_ = &metrics_->counter(prefix_ + "duplicated");
  c_reordered_ = &metrics_->counter(prefix_ + "reordered");
}

FaultPlan fault_plan_by_name(const std::string& name, double p,
                             std::uint64_t seed) {
  if (name == "none") return FaultPlan{.seed = seed};
  if (name == "drop") return FaultPlan::drops(p, seed);
  if (name == "delay") return FaultPlan::delays(p, seed);
  if (name == "duplicate") return FaultPlan::duplicates(p, seed);
  if (name == "reorder") return FaultPlan::reorders(p, seed);
  if (name == "chaos") return FaultPlan::chaos(p, seed);
  throw std::invalid_argument(
      "fault_plan_by_name: unknown plan '" + name +
      "' (none|drop|delay|duplicate|reorder|chaos)");
}

}  // namespace dlb::net
