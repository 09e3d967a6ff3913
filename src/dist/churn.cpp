#include "dist/churn.hpp"

#include <algorithm>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/text_codec.hpp"
#include "stats/rng.hpp"

namespace dlb::dist {

namespace {

[[noreturn]] void invalid(const std::string& field, const std::string& why) {
  throw std::invalid_argument("ChurnPlan: invalid " + field + ": " + why);
}

std::string event_field(std::size_t index, const char* member) {
  std::string field = "events[" + std::to_string(index) + "]";
  if (member != nullptr) {
    field += '.';
    field += member;
  }
  return field;
}

}  // namespace

const char* churn_kind_name(ChurnKind kind) noexcept {
  switch (kind) {
    case ChurnKind::kJoin:
      return "join";
    case ChurnKind::kDrain:
      return "drain";
    case ChurnKind::kCrash:
      return "crash";
  }
  return "?";
}

ChurnKind churn_kind_by_name(const std::string& name) {
  if (name == "join") return ChurnKind::kJoin;
  if (name == "drain") return ChurnKind::kDrain;
  if (name == "crash") return ChurnKind::kCrash;
  throw std::invalid_argument("unknown churn event kind: " + name +
                              " (expected join, drain, or crash)");
}

void ChurnPlan::validate(std::size_t num_machines) const {
  if (num_machines == 0) invalid("plan", "cluster has no machines");
  const std::vector<std::uint8_t> start = initial_live(num_machines);
  std::size_t live =
      static_cast<std::size_t>(std::count(start.begin(), start.end(), 1));
  std::vector<std::uint8_t> alive = start;
  if (live == 0) {
    invalid("events", "every machine's first event is a join, so the run "
                      "would start with an empty live set");
  }
  std::uint64_t prev_epoch = 1;
  for (std::size_t k = 0; k < events.size(); ++k) {
    const ChurnEvent& event = events[k];
    if (event.epoch < 1) {
      invalid(event_field(k, "epoch"), "epochs are 1-based");
    }
    if (event.epoch < prev_epoch) {
      invalid(event_field(k, "epoch"),
              "events must be ordered by epoch (saw " +
                  std::to_string(event.epoch) + " after " +
                  std::to_string(prev_epoch) + ")");
    }
    prev_epoch = event.epoch;
    if (event.machine >= num_machines) {
      invalid(event_field(k, "machine"),
              "machine " + std::to_string(event.machine) +
                  " out of range for " + std::to_string(num_machines) +
                  " machines");
    }
    const bool machine_live = alive[event.machine] != 0;
    switch (event.kind) {
      case ChurnKind::kJoin:
        if (machine_live) {
          invalid(event_field(k, nullptr),
                  "join of machine " + std::to_string(event.machine) +
                      " which is already live");
        }
        alive[event.machine] = 1;
        ++live;
        break;
      case ChurnKind::kDrain:
      case ChurnKind::kCrash:
        if (!machine_live) {
          invalid(event_field(k, nullptr),
                  std::string(churn_kind_name(event.kind)) + " of machine " +
                      std::to_string(event.machine) + " which is not live");
        }
        if (live == 1) {
          invalid(event_field(k, nullptr),
                  std::string(churn_kind_name(event.kind)) + " of machine " +
                      std::to_string(event.machine) +
                      " would empty the live set");
        }
        alive[event.machine] = 0;
        --live;
        break;
    }
  }
}

std::vector<std::uint8_t> ChurnPlan::initial_live(
    std::size_t num_machines) const {
  std::vector<std::uint8_t> mask(num_machines, 1);
  std::vector<std::uint8_t> seen(num_machines, 0);
  for (const ChurnEvent& event : events) {
    if (event.machine >= num_machines || seen[event.machine] != 0) continue;
    seen[event.machine] = 1;
    if (event.kind == ChurnKind::kJoin) mask[event.machine] = 0;
  }
  return mask;
}

ChurnPlan ChurnPlan::random(std::size_t num_machines, std::uint64_t epochs,
                            double join_p, double drain_p, double crash_p,
                            std::uint64_t seed) {
  ChurnPlan plan;
  plan.seed = seed;
  stats::Rng rng(seed ^ 0xC0FFEE'5EED'0001ULL);
  std::vector<std::uint8_t> alive(num_machines, 1);
  std::size_t live = num_machines;
  const auto pick = [&](bool want_live) -> std::optional<MachineId> {
    std::vector<MachineId> candidates;
    for (MachineId i = 0; i < num_machines; ++i) {
      if ((alive[i] != 0) == want_live) candidates.push_back(i);
    }
    if (candidates.empty()) return std::nullopt;
    return candidates[rng.below(candidates.size())];
  };
  for (std::uint64_t epoch = 1; epoch <= epochs; ++epoch) {
    // Joins first so a machine departed in an earlier epoch can return
    // before this epoch's departure draw; departures only fire while at
    // least two machines are live, so the plan always validates.
    if (rng.bernoulli(join_p)) {
      if (const auto machine = pick(false)) {
        plan.events.push_back({epoch, ChurnKind::kJoin, *machine});
        alive[*machine] = 1;
        ++live;
      }
    }
    if (rng.bernoulli(drain_p) && live >= 2) {
      if (const auto machine = pick(true)) {
        plan.events.push_back({epoch, ChurnKind::kDrain, *machine});
        alive[*machine] = 0;
        --live;
      }
    }
    if (rng.bernoulli(crash_p) && live >= 2) {
      if (const auto machine = pick(true)) {
        plan.events.push_back({epoch, ChurnKind::kCrash, *machine});
        alive[*machine] = 0;
        --live;
      }
    }
  }
  return plan;
}

void ChurnPlan::save(std::ostream& out) const {
  out << "dlb-churn-plan v1\n";
  out << "seed " << seed << " redispatch_per_epoch " << redispatch_per_epoch
      << "\n";
  out << "events " << events.size() << "\n";
  for (const ChurnEvent& event : events) {
    out << event.epoch << ' ' << churn_kind_name(event.kind) << ' '
        << event.machine << "\n";
  }
}

ChurnPlan ChurnPlan::load(std::istream& in) {
  codec::TextReader reader(in, "ChurnPlan");
  reader.header("dlb-churn-plan");
  ChurnPlan plan;
  plan.seed = reader.value<std::uint64_t>("seed");
  plan.redispatch_per_epoch =
      reader.value<std::size_t>("redispatch_per_epoch");
  plan.events = reader.row<ChurnEvent>(
      reader.value<std::size_t>("events"), [&] {
        ChurnEvent event;
        event.epoch = reader.next<std::uint64_t>("event list");
        const auto kind = reader.next<std::string>("event list");
        try {
          event.kind = churn_kind_by_name(kind);
        } catch (const std::invalid_argument& e) {
          reader.fail(e.what());
        }
        event.machine = reader.next<MachineId>("event machine");
        return event;
      });
  return plan;
}

void ChurnPlan::save_file(const std::string& path) const {
  codec::save_file(*this, path, "ChurnPlan");
}

ChurnPlan ChurnPlan::load_file(const std::string& path) {
  return codec::load_file<ChurnPlan>(path, "ChurnPlan");
}

ChurnRuntime::ChurnRuntime(const ChurnPlan* plan, std::size_t num_machines)
    : plan_(plan), active_(plan != nullptr && !plan->trivial()) {
  live_.reserve(num_machines);
  live_index_.resize(num_machines, 0);
  for (MachineId i = 0; i < num_machines; ++i) {
    live_.push_back(i);
    live_index_[i] = i;
  }
}

void ChurnRuntime::rebuild_live(const Schedule& schedule) {
  live_.clear();
  for (MachineId i = 0; i < schedule.num_machines(); ++i) {
    if (schedule.is_live(i)) {
      live_index_[i] = live_.size();
      live_.push_back(i);
    }
  }
}

void ChurnRuntime::apply_initial(Schedule& schedule,
                                 const obs::Context* obs) {
  if (!active_) return;
  const auto mask = plan_->initial_live(schedule.num_machines());
  std::uint64_t orphaned = 0;
  for (MachineId i = 0; i < mask.size(); ++i) {
    if (mask[i] != 0) continue;
    // The initial distribution may have placed jobs on a machine that has
    // not joined yet; they wait in the queue like crash orphans and become
    // eligible for re-dispatch at epoch 1.
    for (const JobId j : sorted_jobs_on(schedule, i)) {
      schedule.unassign(j);
      queue_.push_back(j);
      ++orphaned;
    }
    schedule.set_live(i, false);
  }
  counters_.orphaned += orphaned;
  if (orphaned > 0) {
    if (obs::Metrics* metrics = obs::metrics_of(obs)) {
      metrics->counter("churn.orphaned").add(orphaned);
    }
  }
  rebuild_live(schedule);
}

bool ChurnRuntime::begin_epoch(std::uint64_t epoch, Schedule& schedule,
                               const obs::Context* obs, double ts_us) {
  if (!active_) return false;
  obs::Metrics* metrics = obs::metrics_of(obs);
  obs::Tracer* tracer = obs::tracer_of(obs);

  // Orphans queued before this epoch's crashes are eligible for
  // re-dispatch below; this epoch's own casualties wait one more epoch.
  const std::size_t eligible = queue_.size();

  bool mask_changed = false;
  const std::size_t num_events = plan_->events.size();
  while (cursor_ < num_events && plan_->events[cursor_].epoch <= epoch) {
    const ChurnEvent& event = plan_->events[cursor_];
    ++cursor_;
    switch (event.kind) {
      case ChurnKind::kJoin: {
        schedule.set_live(event.machine, true);
        ++counters_.joins;
        if (metrics != nullptr) metrics->counter("churn.joins").add();
        if (tracer != nullptr) {
          tracer->instant(ts_us, static_cast<std::uint32_t>(event.machine),
                          "JOIN", "churn");
        }
        break;
      }
      case ChurnKind::kDrain: {
        // Graceful shutdown: every resident migrates (ascending id) to the
        // live machine with the least load at that moment, then the
        // machine leaves the set.
        const std::vector<JobId> jobs =
            sorted_jobs_on(schedule, event.machine);
        // Scan the schedule's mask, not live_: within one epoch's event
        // batch live_ is stale (rebuilt after the batch), and a join
        // earlier in the batch may be the only legal target.
        for (const JobId j : jobs) {
          MachineId target = kUnassigned;
          Cost best = 0.0;
          for (MachineId i = 0; i < schedule.num_machines(); ++i) {
            if (i == event.machine || !schedule.is_live(i)) continue;
            if (target == kUnassigned || schedule.load(i) < best) {
              target = i;
              best = schedule.load(i);
            }
          }
          schedule.move(j, target);
        }
        schedule.set_live(event.machine, false);
        ++counters_.drains;
        if (metrics != nullptr) metrics->counter("churn.drains").add();
        if (tracer != nullptr) {
          tracer->instant(
              ts_us, static_cast<std::uint32_t>(event.machine), "DRAIN",
              "churn",
              {{"jobs", static_cast<std::int64_t>(jobs.size())}});
        }
        break;
      }
      case ChurnKind::kCrash: {
        // Fail-stop: residents are orphaned into the FIFO re-dispatch
        // queue (never lost — the conservation oracle checks).
        const std::vector<JobId> jobs =
            sorted_jobs_on(schedule, event.machine);
        for (const JobId j : jobs) {
          schedule.unassign(j);
          queue_.push_back(j);
        }
        schedule.set_live(event.machine, false);
        counters_.orphaned += jobs.size();
        ++counters_.crashes;
        if (metrics != nullptr) {
          metrics->counter("churn.crashes").add();
          if (!jobs.empty()) {
            metrics->counter("churn.orphaned").add(jobs.size());
          }
        }
        if (tracer != nullptr) {
          tracer->instant(
              ts_us, static_cast<std::uint32_t>(event.machine), "CRASH",
              "churn",
              {{"orphaned", static_cast<std::int64_t>(jobs.size())}});
        }
        break;
      }
    }
    mask_changed = true;
  }
  if (mask_changed) rebuild_live(schedule);

  // Re-dispatch: place queued orphans on uniformly drawn live machines.
  // The targets come from a per-epoch stream of the *plan* seed, so
  // recovery is independent of the engine's own randomness and of how
  // many draws earlier epochs consumed — which is what lets a checkpoint
  // skip generator state entirely.
  std::size_t budget = std::min(eligible, queue_.size());
  if (plan_->redispatch_per_epoch > 0) {
    budget = std::min(budget, plan_->redispatch_per_epoch);
  }
  if (budget > 0) {
    stats::Rng rng = stats::Rng::stream(plan_->seed, epoch);
    for (std::size_t k = 0; k < budget; ++k) {
      const JobId j = queue_[k];
      const MachineId target = live_[rng.below(live_.size())];
      schedule.assign(j, target);
    }
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(budget));
    counters_.redispatched += budget;
    if (metrics != nullptr) {
      metrics->counter("churn.redispatched").add(budget);
    }
    if (tracer != nullptr) {
      tracer->instant(ts_us, 0, "REDISPATCH", "churn",
                      {{"jobs", static_cast<std::int64_t>(budget)}});
    }
  }
  return mask_changed;
}

void ChurnRuntime::restore(std::size_t cursor, std::vector<JobId> queue,
                           const ChurnCounters& counters,
                           const Schedule& schedule) {
  cursor_ = cursor;
  queue_ = std::move(queue);
  counters_ = counters;
  rebuild_live(schedule);
}

}  // namespace dlb::dist
