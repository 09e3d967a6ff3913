#include "dist/checkpoint.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/generators.hpp"
#include "dist/churn.hpp"
#include "dist/exchange_engine.hpp"
#include "dist/parallel_exchange_engine.hpp"
#include "obs/obs.hpp"
#include "pairwise/basic_greedy.hpp"

namespace dlb::dist {
namespace {

bool same_event(const obs::TraceEvent& a, const obs::TraceEvent& b) {
  return a.ts_us == b.ts_us && a.tid == b.tid && a.phase == b.phase &&
         a.name == b.name && a.category == b.category && a.args == b.args;
}

/// The resumed run's trace must be exactly the uninterrupted run's events
/// from the halt point on (timestamps continue, nothing repeated).
void expect_trace_suffix(const obs::Tracer& full, const obs::Tracer& tail) {
  const std::vector<obs::TraceEvent> all = full.events();
  const std::vector<obs::TraceEvent> suffix = tail.events();
  ASSERT_LE(suffix.size(), all.size());
  const std::size_t offset = all.size() - suffix.size();
  for (std::size_t k = 0; k < suffix.size(); ++k) {
    EXPECT_TRUE(same_event(all[offset + k], suffix[k]))
        << "trace event " << k << " of the resumed run differs from "
        << "uninterrupted event " << offset + k;
  }
}

TEST(Checkpoint, SaveLoadRoundTripsEveryFieldBitExactly) {
  Checkpoint ck;
  ck.engine = Checkpoint::Engine::kParallel;
  ck.seed = 0xDEADBEEFULL;
  ck.num_machines = 3;
  ck.num_jobs = 5;
  ck.rng_state = {1, 2, 3, 0xFFFFFFFFFFFFFFFFULL};
  ck.order = {2, 0};  // the live machines, as the engines write it
  ck.epochs = 17;
  ck.next_session = 42;
  ck.initial_makespan = 0.1;  // not exactly representable: bit test
  ck.best_makespan = 1.0 / 3.0;
  ck.exchanges = 7;
  ck.changed_exchanges = 4;
  ck.migrations = 9;
  ck.conflicts = 2;
  ck.peer_retries = 5;
  ck.live = {1, 0, 1};
  ck.assignment = {0, kUnassigned, 2, 0, 2};
  ck.loads = {0.1 + 0.2, 0.0, 12.75};
  ck.churn_cursor = 3;
  ck.churn_queue = {1};
  ck.churn = {1, 2, 3, 4, 3};
  ck.obs_counters = {{"churn.crashes", 3}, {"parexchange.sessions", 7}};

  std::stringstream bytes;
  ck.save(bytes);
  const Checkpoint loaded = Checkpoint::load(bytes);

  EXPECT_EQ(loaded.engine, ck.engine);
  EXPECT_EQ(loaded.seed, ck.seed);
  EXPECT_EQ(loaded.num_machines, ck.num_machines);
  EXPECT_EQ(loaded.num_jobs, ck.num_jobs);
  EXPECT_EQ(loaded.rng_state, ck.rng_state);
  EXPECT_EQ(loaded.order, ck.order);
  EXPECT_EQ(loaded.epochs, ck.epochs);
  EXPECT_EQ(loaded.next_session, ck.next_session);
  EXPECT_EQ(loaded.initial_makespan, ck.initial_makespan);
  EXPECT_EQ(loaded.best_makespan, ck.best_makespan);
  EXPECT_EQ(loaded.exchanges, ck.exchanges);
  EXPECT_EQ(loaded.changed_exchanges, ck.changed_exchanges);
  EXPECT_EQ(loaded.migrations, ck.migrations);
  EXPECT_EQ(loaded.conflicts, ck.conflicts);
  EXPECT_EQ(loaded.peer_retries, ck.peer_retries);
  EXPECT_EQ(loaded.live, ck.live);
  EXPECT_EQ(loaded.assignment, ck.assignment);
  EXPECT_EQ(loaded.loads, ck.loads);
  EXPECT_EQ(loaded.churn_cursor, ck.churn_cursor);
  EXPECT_EQ(loaded.churn_queue, ck.churn_queue);
  EXPECT_EQ(loaded.churn.joins, ck.churn.joins);
  EXPECT_EQ(loaded.churn.redispatched, ck.churn.redispatched);
  EXPECT_EQ(loaded.obs_counters, ck.obs_counters);

  // Byte-determinism of the format itself: re-saving reproduces the bytes.
  std::stringstream again;
  loaded.save(again);
  std::stringstream original;
  ck.save(original);
  EXPECT_EQ(again.str(), original.str());
}

TEST(Checkpoint, LoadRejectsWrongHeader) {
  std::stringstream bytes("dlb-instance v1\n");
  EXPECT_THROW((void)Checkpoint::load(bytes), std::runtime_error);
}

TEST(Checkpoint, MakeScheduleRejectsShapeMismatch) {
  Checkpoint ck;
  ck.num_machines = 3;
  ck.num_jobs = 5;
  const Instance inst = gen::identical_uniform(4, 5, 1.0, 2.0, 1);
  EXPECT_THROW((void)ck.make_schedule(inst), std::invalid_argument);
}

TEST(Checkpoint, ObsCounterHelperSortsAndOmitsZeros) {
  ChurnCounters churn;
  churn.crashes = 2;
  churn.orphaned = 5;
  const auto counters = checkpoint_obs_counters(
      {{"z.last", 1}, {"a.first", 0}, {"m.mid", 3}}, churn);
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"churn.crashes", 2}, {"churn.orphaned", 5}, {"m.mid", 3},
      {"z.last", 1}};
  EXPECT_EQ(counters, expected);
}

// ----- restore equivalence: the tentpole contract -----
//
// checkpoint at epoch k + restore + run to completion == one uninterrupted
// run, bitwise: report JSON, final schedule fingerprint, obs counters and
// the post-k trace events — at any thread count.

struct SeqRun {
  RunResult result;
  std::uint64_t fingerprint = 0;
  obs::Metrics metrics;
  obs::Tracer tracer;
};

void run_seq(SeqRun& run, const Instance& inst, const ChurnPlan& plan,
             const Checkpoint* resume, std::optional<std::uint64_t> halt,
             Checkpoint* out) {
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  EngineOptions options;
  options.max_exchanges = 150;
  options.churn = &plan;
  options.resume = resume;
  options.halt_after_epoch = halt;
  options.checkpoint_out = out;
  const obs::Context context{&run.metrics, &run.tracer};
  options.obs = &context;
  Schedule schedule = resume != nullptr
                          ? resume->make_schedule(inst)
                          : Schedule(inst, gen::random_assignment(inst, 2));
  stats::Rng rng(3);
  run.result = ExchangeEngine(kernel, selector).run(schedule, options, rng);
  run.fingerprint = schedule.fingerprint();
}

TEST(CheckpointRestore, SequentialRunResumesBitwiseIdentically) {
  const Instance inst = gen::identical_uniform(5, 30, 1.0, 10.0, 1);
  ChurnPlan plan;
  plan.seed = 4;
  plan.events = {{2, ChurnKind::kCrash, 4},
                 {4, ChurnKind::kDrain, 3},
                 {6, ChurnKind::kJoin, 4}};

  SeqRun uninterrupted;
  run_seq(uninterrupted, inst, plan, nullptr, std::nullopt, nullptr);
  ASSERT_GT(uninterrupted.result.epochs, 4u);

  // Halt at an interior epoch and snapshot.
  Checkpoint snapshot;
  SeqRun halted;
  run_seq(halted, inst, plan, nullptr, uninterrupted.result.epochs / 2,
          &snapshot);
  ASSERT_TRUE(halted.result.halted);

  // Round-trip through the text format, then finish the run.
  std::stringstream bytes;
  snapshot.save(bytes);
  const Checkpoint restored = Checkpoint::load(bytes);
  SeqRun resumed;
  run_seq(resumed, inst, plan, &restored, std::nullopt, nullptr);

  EXPECT_EQ(resumed.fingerprint, uninterrupted.fingerprint);
  EXPECT_EQ(resumed.result.to_json().dump(),
            uninterrupted.result.to_json().dump());
  EXPECT_EQ(resumed.metrics.snapshot().dump(),
            uninterrupted.metrics.snapshot().dump());
  expect_trace_suffix(uninterrupted.tracer, resumed.tracer);
}

struct ParRun {
  ParallelRunResult result;
  std::uint64_t fingerprint = 0;
  obs::Metrics metrics;
  obs::Tracer tracer;
};

void run_par(ParRun& run, const Instance& inst, const ChurnPlan& plan,
             parallel::ThreadPool* pool, const Checkpoint* resume,
             std::optional<std::uint64_t> halt, Checkpoint* out) {
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  ParallelEngineOptions options;
  options.max_exchanges = 140;
  options.churn = &plan;
  options.pool = pool;
  options.resume = resume;
  options.halt_after_epoch = halt;
  options.checkpoint_out = out;
  const obs::Context context{&run.metrics, &run.tracer};
  options.obs = &context;
  Schedule schedule = resume != nullptr
                          ? resume->make_schedule(inst)
                          : Schedule(inst, gen::random_assignment(inst, 5));
  run.result =
      ParallelExchangeEngine(kernel, selector).run(schedule, options, 6);
  run.fingerprint = schedule.fingerprint();
}

TEST(CheckpointRestore, ParallelRunResumesBitwiseIdenticallyAtAnyThreadCount) {
  const Instance inst = gen::identical_uniform(8, 48, 1.0, 10.0, 4);
  ChurnPlan plan;
  plan.seed = 7;
  plan.events = {{2, ChurnKind::kCrash, 7},
                 {3, ChurnKind::kDrain, 6},
                 {5, ChurnKind::kJoin, 7}};

  ParRun uninterrupted;
  run_par(uninterrupted, inst, plan, nullptr, nullptr, std::nullopt,
          nullptr);
  ASSERT_GT(uninterrupted.result.epochs, 4u);
  const std::uint64_t halt_epoch = uninterrupted.result.epochs / 2;

  parallel::ThreadPool pool(8);
  // Halt on one thread count, resume on another: the checkpoint must be
  // interchangeable because every snapshot happens in a sequential phase.
  for (parallel::ThreadPool* halt_pool :
       {static_cast<parallel::ThreadPool*>(nullptr), &pool}) {
    Checkpoint snapshot;
    ParRun halted;
    run_par(halted, inst, plan, halt_pool, nullptr, halt_epoch, &snapshot);
    ASSERT_TRUE(halted.result.halted);

    std::stringstream bytes;
    snapshot.save(bytes);
    const Checkpoint restored = Checkpoint::load(bytes);
    for (parallel::ThreadPool* resume_pool :
         {static_cast<parallel::ThreadPool*>(nullptr), &pool}) {
      ParRun resumed;
      run_par(resumed, inst, plan, resume_pool, &restored, std::nullopt,
              nullptr);
      EXPECT_EQ(resumed.fingerprint, uninterrupted.fingerprint);
      EXPECT_EQ(resumed.result.to_json().dump(),
                uninterrupted.result.to_json().dump());
      EXPECT_EQ(resumed.metrics.snapshot().dump(),
                uninterrupted.metrics.snapshot().dump());
      expect_trace_suffix(uninterrupted.tracer, resumed.tracer);
    }
  }
}

TEST(CheckpointRestore, SequentialEngineRejectsForeignCheckpoint) {
  const Instance inst = gen::identical_uniform(3, 9, 1.0, 2.0, 8);
  Checkpoint ck;
  ck.engine = Checkpoint::Engine::kParallel;
  ck.num_machines = 3;
  ck.num_jobs = 9;
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  EngineOptions options;
  options.resume = &ck;
  Schedule schedule(inst, Assignment::round_robin(9, 3));
  stats::Rng rng(9);
  try {
    (void)ExchangeEngine(kernel, selector).run(schedule, options, rng);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // This engine never compares seeds, so the message does not name one.
    EXPECT_EQ(std::string(e.what()),
              "ExchangeEngine: checkpoint does not match this run (engine "
              "kind or instance shape differs)");
  }
}

TEST(CheckpointRestore, ParallelEngineRejectsSeedMismatch) {
  const Instance inst = gen::identical_uniform(4, 12, 1.0, 2.0, 10);
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  const ParallelExchangeEngine engine(kernel, selector);

  Checkpoint snapshot;
  ParallelEngineOptions options;
  options.max_exchanges = 60;
  options.halt_after_epoch = 1;
  options.checkpoint_out = &snapshot;
  Schedule schedule(inst, Assignment::round_robin(12, 4));
  const ParallelRunResult halted = engine.run(schedule, options, 11);
  ASSERT_TRUE(halted.halted);

  ParallelEngineOptions resume_options;
  resume_options.resume = &snapshot;
  Schedule resumed = snapshot.make_schedule(inst);
  try {
    (void)engine.run(resumed, resume_options, 12);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "ParallelExchangeEngine: checkpoint does not match this run "
              "(engine kind, seed, or instance shape differs)");
  }
}

// ----- hostile bytes -----
//
// A checkpoint file crosses a process boundary. Tampered counts and ids
// must raise a runtime_error naming the field: never allocate from an
// unchecked count, and never hand make_schedule or an engine an id out of
// range (both used to crash or throw std::bad_alloc).

/// `text`, one string per line.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::stringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The saved text of a halted 4-machine / 12-job run, one string per line.
std::vector<std::string> four_machine_checkpoint_lines() {
  const Instance inst = gen::identical_uniform(4, 12, 1.0, 10.0, 3);
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  Checkpoint snapshot;
  EngineOptions options;
  options.max_exchanges = 40;
  options.halt_after_epoch = 2;
  options.checkpoint_out = &snapshot;
  Schedule schedule(inst, gen::random_assignment(inst, 4));
  stats::Rng rng(5);
  (void)ExchangeEngine(kernel, selector).run(schedule, options, rng);
  std::stringstream bytes;
  snapshot.save(bytes);
  return lines_of(bytes.str());
}

/// Replaces the `key <count>` line and the row line after it (an empty
/// row has no line, so one is inserted).
std::string with_row(std::vector<std::string> lines, const std::string& key,
                     const std::string& count_line,
                     const std::string& row_line) {
  for (std::size_t k = 0; k + 1 < lines.size(); ++k) {
    if (lines[k].rfind(key + " ", 0) == 0) {
      const bool empty_row = lines[k] == key + " 0";
      lines[k] = count_line;
      if (empty_row) {
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(k) + 1,
                     row_line);
      } else {
        lines[k + 1] = row_line;
      }
      break;
    }
  }
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

TEST(Checkpoint, LoadRejectsHostileCountsAndIds) {
  const std::vector<std::string> lines = four_machine_checkpoint_lines();
  for (const std::string& valid :
       {with_row(lines, "order", "order 4", "3 1 0 2"),
        with_row(lines, "churn_queue", "churn_queue 1", "11"),
       with_row(lines_of(with_row(lines, "order", "order 3", "3 1 0")),
                "live", "live 4", "1 1 0 1")}) {
    std::stringstream intact(valid);
    EXPECT_NO_THROW((void)Checkpoint::load(intact)) << valid;
  }
  std::string many_live;
  for (int k = 0; k < 200000; ++k) many_live += k == 0 ? "1" : " 1";
  const std::string inf_bits = std::to_string(
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity()));
  const std::vector<std::string> hostile = {
      with_row(lines, "order", "order 4", "4000000000 1 0 2"),
      with_row(lines, "order", "order 4", "3 1 3 2"),
      with_row(lines, "order", "order 999999999999", "3 1 0 2"),
      with_row(lines, "live", "live 200000", many_live),
      with_row(lines, "live", "live 3", "1 1 1"),
      with_row(lines, "assignment", "assignment 999999999999", "0 1"),
      with_row(lines, "assignment", "assignment 12",
               "0 1 2 3 0 1 2 3 0 1 2 9"),
      with_row(lines, "loads", "loads 4", "0 0 0 " + inf_bits),
      with_row(lines, "churn_queue", "churn_queue 1", "12"),
      // The order must be exactly the live machines, and one must be live.
      with_row(lines, "order", "order 0", ""),
      with_row(lines, "live", "live 4", "0 0 0 0"),
      with_row(lines, "live", "live 4", "1 0 1 1"),
      with_row(lines_of(with_row(lines, "order", "order 3", "3 1 2")),
               "live", "live 4", "1 1 0 1"),
  };
  for (const std::string& text : hostile) {
    std::stringstream bytes(text);
    EXPECT_THROW((void)Checkpoint::load(bytes), std::runtime_error) << text;
  }
}

/// The what() of the std::runtime_error Checkpoint::load throws on
/// `text` ("" if it loads).
std::string load_error(const std::string& text) {
  std::stringstream bytes(text);
  try {
    (void)Checkpoint::load(bytes);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// A negative number must not wrap into a small unsigned value:
// "-4294967293" read into a 32-bit id would be machine 3 of 4, and
// "epochs -1" would be 2^64 - 1.
TEST(Checkpoint, LoadRefusesNegativeNumbersNamingTheField) {
  const std::vector<std::string> lines = four_machine_checkpoint_lines();
  EXPECT_EQ(load_error(with_row(lines, "order", "order 4",
                                "-4294967293 1 0 2")),
            "Checkpoint::load: bad order entry \"-4294967293\"");
  EXPECT_EQ(load_error(with_row(lines, "churn_queue", "churn_queue 1",
                                "-4294967285")),
            "Checkpoint::load: bad churn queue entry \"-4294967285\"");
  std::string text;
  for (const std::string& line : lines) {
    text += line.rfind("epochs ", 0) == 0
                ? "epochs -1" + line.substr(line.find(' ', 7)) + "\n"
                : line + "\n";
  }
  EXPECT_EQ(load_error(text), "Checkpoint::load: bad value for epochs");
}

/// `ck` saved and loaded back, as a file would carry it.
Checkpoint through_file(const Checkpoint& ck) {
  std::stringstream bytes;
  ck.save(bytes);
  return Checkpoint::load(bytes);
}

/// The four-machine checkpoint, loaded.
Checkpoint four_machine_checkpoint() {
  std::string text;
  for (const std::string& line : four_machine_checkpoint_lines()) {
    text += line + "\n";
  }
  std::stringstream bytes(text);
  return Checkpoint::load(bytes);
}

/// The what() of the std::invalid_argument `thaw` throws ("" if none).
template <typename Thaw>
std::string refusal(Thaw thaw) {
  try {
    thaw();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// A checkpoint built in code skips load's checks. An empty order must end
// the resumed run instead of spinning through exchange-free epochs.
TEST(Checkpoint, ResumeWithEmptyOrderEndsTheRun) {
  Checkpoint ck = four_machine_checkpoint();
  ck.order.clear();
  const Instance inst = gen::identical_uniform(4, 12, 1.0, 10.0, 3);
  const pairwise::BasicGreedyKernel kernel;
  const UniformPeerSelector selector;
  EngineOptions options;
  options.max_exchanges = 40;
  options.resume = &ck;
  Schedule schedule = ck.make_schedule(inst);
  stats::Rng rng(5);
  const RunResult result =
      ExchangeEngine(kernel, selector).run(schedule, options, rng);
  EXPECT_EQ(result.exchanges, ck.exchanges);
  EXPECT_FALSE(result.halted);
}

// A load the assignment cannot explain used to be restored as is: a run
// resumed with loads[0] += 1000 reported a makespan near 1031.
TEST(Checkpoint, ThawRefusesLoadsTheAssignmentCannotExplain) {
  const Instance inst = gen::identical_uniform(4, 12, 1.0, 10.0, 3);
  Checkpoint ck = four_machine_checkpoint();
  EXPECT_NO_THROW((void)ck.make_schedule(inst));
  ck.loads[0] += 1000.0;
  const Checkpoint tampered = through_file(ck);
  EXPECT_NE(refusal([&] { (void)tampered.make_schedule(inst); })
                .find("Checkpoint::make_schedule: loads[0]"),
            std::string::npos);
  Schedule replica(inst, Assignment::round_robin(12, 4));
  EXPECT_NE(refusal([&] { tampered.thaw_into(replica); })
                .find("FrozenSchedule::thaw_into: loads[0]"),
            std::string::npos);
}

// A job on no machine and in no queue used to vanish from the resumed run,
// which then finished without it.
TEST(Checkpoint, MakeScheduleRefusesAJobNeitherPlacedNorQueued) {
  const Instance inst = gen::identical_uniform(4, 12, 1.0, 10.0, 3);
  Checkpoint ck = four_machine_checkpoint();
  ASSERT_TRUE(ck.churn_queue.empty());
  const MachineId host = ck.assignment[0];
  ck.loads[host] -= inst.cost(host, 0);
  ck.assignment[0] = kUnassigned;
  const Checkpoint tampered = through_file(ck);
  EXPECT_EQ(refusal([&] { (void)tampered.make_schedule(inst); }),
            "Checkpoint::make_schedule: job 0 is on no machine and not in "
            "churn_queue");
  // Queued, the same job is a crash orphan awaiting re-dispatch.
  ck.churn_queue = {0};
  EXPECT_NO_THROW((void)through_file(ck).make_schedule(inst));
}

}  // namespace
}  // namespace dlb::dist
