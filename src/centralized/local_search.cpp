#include "centralized/local_search.hpp"

#include <algorithm>

namespace dlb::centralized {

namespace {

/// The two largest loads among machines other than `max_machine`, so the
/// makespan after an action that changes only `max_machine` and a receiver
/// i can be computed exactly: the rest's max is rest1 unless i == rest1's
/// machine, in which case it is rest2.
struct RestMax {
  Cost first = 0.0;
  MachineId first_machine = kUnassigned;
  Cost second = 0.0;

  [[nodiscard]] Cost excluding(MachineId i) const {
    return i == first_machine ? second : first;
  }
};

RestMax rest_max_loads(const Schedule& schedule, MachineId max_machine) {
  RestMax rest;
  for (MachineId i = 0; i < schedule.num_machines(); ++i) {
    if (i == max_machine) continue;
    const Cost load = schedule.load(i);
    if (load > rest.first) {
      rest.second = rest.first;
      rest.first = load;
      rest.first_machine = i;
    } else if (load > rest.second) {
      rest.second = load;
    }
  }
  return rest;
}

}  // namespace

LocalSearchResult local_search_improve(Schedule& schedule,
                                       const LocalSearchOptions& options) {
  const Instance& instance = schedule.instance();
  LocalSearchResult result;
  if (schedule.num_machines() < 2) return result;

  while (result.steps < options.max_steps) {
    const MachineId max_machine = schedule.argmax_load();
    const Cost max_load = schedule.load(max_machine);
    const RestMax rest = rest_max_loads(schedule, max_machine);

    // Best single action strictly reducing the makespan. The makespan
    // after an action is max(second, new load of max machine, new load of
    // the receiving machine).
    struct Action {
      Cost resulting_makespan;
      JobId move_job;
      MachineId to;
      JobId swap_job;  // kUnassigned => pure move
    };
    Action best{max_load, 0, 0, kUnassigned};

    // Candidates break ties by first-seen order, so both rows are walked
    // in id order to keep the search independent of the row order.
    const std::vector<JobId> on_max = sorted_jobs_on(schedule, max_machine);
    for (JobId j : on_max) {
      const Cost relieved = max_load - instance.cost(max_machine, j);
      for (MachineId i = 0; i < schedule.num_machines(); ++i) {
        if (i == max_machine) continue;
        const Cost others = rest.excluding(i);
        // Pure move of j to i.
        const Cost receiver = schedule.load(i) + instance.cost(i, j);
        const Cost moved = std::max({others, relieved, receiver});
        if (moved < best.resulting_makespan) {
          best = {moved, j, i, kUnassigned};
        }
        if (!options.allow_swaps) continue;
        // Swap j against each job k on i, in id order.
        for (JobId k : sorted_jobs_on(schedule, i)) {
          const Cost new_max =
              relieved + instance.cost(max_machine, k);
          const Cost new_other = schedule.load(i) -
                                 instance.cost(i, k) + instance.cost(i, j);
          const Cost swapped = std::max({others, new_max, new_other});
          if (swapped < best.resulting_makespan) {
            best = {swapped, j, i, k};
          }
        }
      }
    }

    constexpr double kMinGain = 1e-12;
    if (best.resulting_makespan >= max_load - kMinGain * (1.0 + max_load)) {
      return result;  // local optimum
    }
    schedule.move(best.move_job, best.to);
    if (best.swap_job != kUnassigned) {
      schedule.move(best.swap_job, max_machine);
    }
    ++result.steps;
  }
  result.local_optimum = false;
  return result;
}

}  // namespace dlb::centralized
