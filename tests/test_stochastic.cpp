// Stochastic cost-model integration tests: the zero-variance equivalence
// anchor (an all-degenerate model must reproduce the deterministic run
// byte for byte -- schedule fingerprint, RunReport JSON, trace points --
// across the sequential and parallel engines at 1, 4 and 8 threads) and
// thread-count byte-identity for genuinely stochastic kernels. The fuzz
// harness (src/check/oracles.cpp) sweeps randomized variants of the same
// properties; these are the pinned, always-on ctest versions.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/generators.hpp"
#include "core/instance.hpp"
#include "dist/exchange_engine.hpp"
#include "dist/parallel_exchange_engine.hpp"
#include "dist/peer_selector.hpp"
#include "pairwise/kernel_registry.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace dlb {
namespace {

constexpr std::uint64_t kSeed = 4242;

Instance base_instance() {
  return gen::uniform_unrelated(6, 48, 1.0, 100.0, 17);
}

Instance with_model(Instance instance, const std::string& spec) {
  instance.set_cost_model(cost::CostModel(std::vector<cost::Dist>(
      instance.num_jobs(), cost::parse_dist(spec))));
  return instance;
}

struct SeqRun {
  std::uint64_t fingerprint = 0;
  std::string report_json;
  std::vector<dist::TracePoint> trace;
};

SeqRun run_seq(const Instance& instance, const std::string& kernel_name,
               const dist::PeerSelector& selector) {
  const pairwise::PairKernel& kernel =
      pairwise::kernel_registry().get(kernel_name);
  Schedule schedule(instance, gen::random_assignment(instance, 9));
  dist::EngineOptions options;
  options.max_exchanges = 200;
  options.record_trace = true;
  stats::Rng rng = stats::Rng::stream(kSeed, 1);
  const dist::RunResult result =
      dist::ExchangeEngine(kernel, selector).run(schedule, options, rng);
  SeqRun run;
  run.fingerprint = schedule.fingerprint();
  run.report_json = result.to_json().dump();
  run.trace = result.trace;
  return run;
}

void expect_same_seq(const SeqRun& a, const SeqRun& b, const char* label) {
  EXPECT_EQ(a.fingerprint, b.fingerprint) << label;
  EXPECT_EQ(a.report_json, b.report_json) << label;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  for (std::size_t x = 0; x < a.trace.size(); ++x) {
    EXPECT_EQ(a.trace[x].makespan, b.trace[x].makespan) << label;
    EXPECT_EQ(a.trace[x].count, b.trace[x].count) << label;
    EXPECT_EQ(a.trace[x].migrations, b.trace[x].migrations) << label;
  }
}

struct ParRun {
  std::uint64_t fingerprint = 0;
  std::string report_json;
  std::vector<dist::TracePoint> trace;
};

ParRun run_par(const Instance& instance, const std::string& kernel_name,
               const dist::PeerSelector& selector,
               parallel::ThreadPool* pool) {
  const pairwise::PairKernel& kernel =
      pairwise::kernel_registry().get(kernel_name);
  Schedule schedule(instance, gen::random_assignment(instance, 9));
  dist::ParallelEngineOptions options;
  options.max_exchanges = 200;
  options.record_trace = true;
  options.pool = pool;
  const dist::ParallelRunResult result =
      dist::ParallelExchangeEngine(kernel, selector)
          .run(schedule, options, kSeed);
  ParRun run;
  run.fingerprint = schedule.fingerprint();
  run.report_json = result.to_json().dump();
  run.trace = result.trace;
  return run;
}

void expect_same_par(const ParRun& a, const ParRun& b, const char* label) {
  EXPECT_EQ(a.fingerprint, b.fingerprint) << label;
  EXPECT_EQ(a.report_json, b.report_json) << label;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  for (std::size_t x = 0; x < a.trace.size(); ++x) {
    EXPECT_EQ(a.trace[x].makespan, b.trace[x].makespan) << label;
    EXPECT_EQ(a.trace[x].count, b.trace[x].count) << label;
    EXPECT_EQ(a.trace[x].migrations, b.trace[x].migrations) << label;
  }
}

/// Every degenerate model shape the text format can spell.
const std::vector<std::string> kDegenerateSpecs = {
    "det:1", "det:2.5", "normal:0", "lognormal:0", "pareto:3,1.75,1.75"};

// ---------------------------------------------------- sequential engine

TEST(ZeroVariance, SequentialQuantileKernelMatchesMeanKernelByteForByte) {
  const Instance plain = base_instance();
  const dist::MaxLoadPeerSelector mean_selector;
  const dist::MaxLoadPeerSelector q95_selector(
      dist::MaxLoadPeerSelector::Mode::kQuantile);
  const SeqRun mean = run_seq(plain, "basic-greedy", mean_selector);
  for (const std::string& spec : kDegenerateSpecs) {
    const Instance degenerate = with_model(base_instance(), spec);
    const SeqRun risk = run_seq(degenerate, "basic-greedy_q95", q95_selector);
    expect_same_seq(mean, risk, spec.c_str());
  }
}

TEST(ZeroVariance, SequentialEffsizeKernelMatchesMeanKernelByteForByte) {
  const Instance plain = base_instance();
  const dist::MaxLoadPeerSelector mean_selector;
  const dist::MaxLoadPeerSelector eff_selector(
      dist::MaxLoadPeerSelector::Mode::kEffectiveSize);
  const SeqRun mean = run_seq(plain, "basic-greedy", mean_selector);
  for (const std::string& spec : kDegenerateSpecs) {
    const Instance degenerate = with_model(base_instance(), spec);
    const SeqRun risk =
        run_seq(degenerate, "basic-greedy_effsize", eff_selector);
    expect_same_seq(mean, risk, spec.c_str());
  }
}

// ------------------------------------------------------ parallel engine

TEST(ZeroVariance, ParallelRiskRunMatchesMeanRunAtOneFourAndEightThreads) {
  const Instance plain = base_instance();
  const Instance degenerate = with_model(base_instance(), "lognormal:0");
  const dist::MaxLoadPeerSelector mean_selector;
  const dist::MaxLoadPeerSelector q95_selector(
      dist::MaxLoadPeerSelector::Mode::kQuantile);

  const ParRun mean = run_par(plain, "basic-greedy", mean_selector, nullptr);
  const ParRun risk_inline =
      run_par(degenerate, "basic-greedy_q95", q95_selector, nullptr);
  expect_same_par(mean, risk_inline, "inline");

  for (const std::size_t threads : {1u, 4u, 8u}) {
    parallel::ThreadPool pool(threads);
    const ParRun risk =
        run_par(degenerate, "basic-greedy_q95", q95_selector, &pool);
    expect_same_par(mean, risk,
                    ("threads=" + std::to_string(threads)).c_str());
  }
}

// ------------------------------- stochastic kernels, thread invariance

TEST(StochasticThreadInvariance, RiskKernelsAreByteIdenticalAtAnyThreadCount) {
  const dist::UniformPeerSelector selector;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"basic-greedy_q95", "normal:0.3"},
      {"basic-greedy_effsize", "lognormal:0.6"},
      {"basic-greedy_q95", "pareto:2.2,0.5,6"},
  };
  for (const auto& [kernel_name, spec] : cases) {
    const Instance instance = with_model(base_instance(), spec);
    const ParRun inline_run = run_par(instance, kernel_name, selector,
                                      nullptr);
    for (const std::size_t threads : {1u, 4u, 8u}) {
      parallel::ThreadPool pool(threads);
      const ParRun pooled = run_par(instance, kernel_name, selector, &pool);
      expect_same_par(
          inline_run, pooled,
          (kernel_name + "/" + spec + "/threads=" + std::to_string(threads))
              .c_str());
    }
  }
}

// A risk-aware run on a *heterogeneous* stochastic model must actually
// diverge from the mean run somewhere (otherwise the surrogate is dead
// code). The model must mix volatile and certain jobs: with the same
// distribution on every job the surrogate is a uniform scaling of the
// cost matrix, which greedy splits are invariant to by design.
TEST(StochasticThreadInvariance, StrongModelChangesTheScheduleButNotTwice) {
  const Instance plain = base_instance();
  Instance stochastic = base_instance();
  {
    std::vector<cost::Dist> dists(stochastic.num_jobs(),
                                  cost::parse_dist("det:1"));
    for (JobId j = 0; j < stochastic.num_jobs(); j += 2) {
      dists[j] = cost::parse_dist("lognormal:1.2");
    }
    stochastic.set_cost_model(cost::CostModel(std::move(dists)));
  }
  const dist::UniformPeerSelector selector;
  const SeqRun mean = run_seq(plain, "basic-greedy", selector);
  const SeqRun risk1 = run_seq(stochastic, "basic-greedy_q95", selector);
  const SeqRun risk2 = run_seq(stochastic, "basic-greedy_q95", selector);
  EXPECT_NE(mean.fingerprint, risk1.fingerprint);
  expect_same_seq(risk1, risk2, "replay");
}

}  // namespace
}  // namespace dlb
