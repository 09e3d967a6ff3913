#include "dist/open_system/placement.hpp"

#include <stdexcept>

namespace dlb::dist {

MachineId RandomPlacement::place(const PlacementView& view, JobId /*job*/,
                                 stats::Rng& rng) const {
  return static_cast<MachineId>(rng.below(view.num_machines()));
}

TwoChoicesPlacement::TwoChoicesPlacement(std::size_t d) : d_(d) {
  if (d == 0) {
    throw std::invalid_argument("TwoChoicesPlacement: d >= 1");
  }
}

std::string TwoChoicesPlacement::name() const {
  return "two_choices:" + std::to_string(d_);
}

MachineId TwoChoicesPlacement::place(const PlacementView& view, JobId job,
                                     stats::Rng& rng) const {
  // Mirrors centralized::two_choices_schedule: the first probe is kept on
  // ties (strict < below), and exactly d draws are consumed per job.
  auto best = static_cast<MachineId>(rng.below(view.num_machines()));
  Cost best_completion = view.work(best) + view.cost(best, job);
  for (std::size_t probe = 1; probe < d_; ++probe) {
    const auto i = static_cast<MachineId>(rng.below(view.num_machines()));
    const Cost completion = view.work(i) + view.cost(i, job);
    if (completion < best_completion) {
      best_completion = completion;
      best = i;
    }
  }
  return best;
}

MachineId EctPlacement::place(const PlacementView& view, JobId job,
                              stats::Rng& /*rng*/) const {
  MachineId best = 0;
  Cost best_completion = view.work(best) + view.cost(best, job);
  for (MachineId i = 1; i < view.num_machines(); ++i) {
    const Cost completion = view.work(i) + view.cost(i, job);
    if (completion < best_completion) {
      best_completion = completion;
      best = i;
    }
  }
  return best;
}

NameRegistry<PlacementPolicy>& placement_registry() {
  static NameRegistry<PlacementPolicy>* registry = [] {
    auto* r = new NameRegistry<PlacementPolicy>("placement policy");
    r->add("random", [] { return std::make_unique<RandomPlacement>(); });
    r->add("two_choices",
           [] { return std::make_unique<TwoChoicesPlacement>(2); });
    r->add("ect", [] { return std::make_unique<EctPlacement>(); });
    r->alias("2choices", "two_choices");
    return r;
  }();
  return *registry;
}

std::unique_ptr<PlacementPolicy> make_placement(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon != std::string::npos &&
      (spec.compare(0, colon, "two_choices") == 0 ||
       spec.compare(0, colon, "2choices") == 0)) {
    const std::string param = spec.substr(colon + 1);
    std::size_t d = 0;
    std::size_t consumed = 0;
    try {
      d = std::stoul(param, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != param.size() || d == 0) {
      throw std::invalid_argument("make_placement: invalid probe count '" +
                                  param + "' in '" + spec +
                                  "' (want an integer >= 1)");
    }
    return std::make_unique<TwoChoicesPlacement>(d);
  }
  return placement_registry().create(spec);
}

}  // namespace dlb::dist
