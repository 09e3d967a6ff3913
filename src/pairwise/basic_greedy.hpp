#pragma once

// Basic Greedy (Algorithm 2): pools the jobs of two machines and assigns
// each pooled job to the machine with the earlier resulting completion
// time. Lemma 3: this is *optimal* for the pair when all jobs have the same
// type (equal cost rows). For general jobs it is still a sensible ECT
// heuristic and is the kernel OJTB (Algorithm 3) runs.

#include <span>
#include <utility>

#include "pairwise/pair_kernel.hpp"

namespace dlb::pairwise {

/// Computes the Basic Greedy split of `pool` (jobs in the given order)
/// between machines a and b starting from empty loads; fills to_a/to_b and
/// returns the loads of a and b (the dealt costs summed in order).
std::pair<Cost, Cost> basic_greedy_split(const Instance& instance,
                                         MachineId a, MachineId b,
                                         std::span<const JobId> pool,
                                         std::vector<JobId>& to_a,
                                         std::vector<JobId>& to_b);

class BasicGreedyKernel final : public PairKernel {
 public:
  bool balance(Schedule& schedule, MachineId a, MachineId b) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "basic-greedy";
  }
};

}  // namespace dlb::pairwise
