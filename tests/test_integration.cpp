// Cross-module integration tests: full pipelines the way the benches and
// examples drive them (generator -> algorithm -> validation -> bounds).

#include <gtest/gtest.h>

#include <sstream>

#include "centralized/clb2c.hpp"
#include "centralized/ect.hpp"
#include "centralized/list_scheduling.hpp"
#include "centralized/lpt.hpp"
#include "centralized/min_min.hpp"
#include "core/generators.hpp"
#include "core/instance_io.hpp"
#include "core/lower_bounds.hpp"
#include "core/validation.hpp"
#include "dist/dlb2c.hpp"
#include "dist/mjtb.hpp"
#include "dist/ojtb.hpp"
#include "parallel/monte_carlo.hpp"
#include "stats/summary.hpp"
#include "ws/work_stealing_sim.hpp"

namespace dlb {
namespace {

TEST(Integration, EveryCentralizedAlgorithmBeatsNoAlgorithm) {
  const Instance inst = gen::two_cluster_uniform(8, 4, 120, 1.0, 100.0, 1);
  const Cost lb = makespan_lower_bound(inst);
  const Schedule piled(inst, Assignment::all_on(120, 0));

  for (const Schedule& s :
       {centralized::list_schedule(inst), centralized::lpt_schedule(inst),
        centralized::ect_schedule(inst), centralized::min_min_schedule(inst),
        centralized::clb2c_schedule(inst)}) {
    EXPECT_TRUE(is_complete_partition(s));
    EXPECT_GE(s.makespan(), lb - 1e-9);
    EXPECT_LT(s.makespan(), piled.makespan());
  }
}

TEST(Integration, SavedInstanceReproducesAlgorithmOutput) {
  const Instance inst = gen::two_cluster_uniform(4, 4, 40, 1.0, 50.0, 2);
  std::stringstream buffer;
  io::save_instance(inst, buffer);
  const Instance loaded = io::load_instance(buffer);
  EXPECT_EQ(centralized::clb2c_schedule(inst).assignment(),
            centralized::clb2c_schedule(loaded).assignment());
}

TEST(Integration, DecentralizedCatchesUpWithCentralized) {
  // The paper's practical claim: DLB2C approaches CLB2C's quality after a
  // modest number of exchanges per machine.
  const Instance inst = gen::two_cluster_uniform(16, 8, 192, 1.0, 1000.0, 3);
  const Cost cent = centralized::clb2c_schedule(inst).makespan();

  Schedule s(inst, gen::random_assignment(inst, 4));
  dist::EngineOptions options;
  options.max_exchanges = 24 * 60;
  stats::Rng rng(5);
  const dist::RunResult result = dist::run_dlb2c(s, options, rng);
  EXPECT_LE(result.best_makespan, 1.5 * cent);
}

TEST(Integration, WorkStealingVersusDlb2cOnTheTrap) {
  // Theorem 1's instance: work stealing pays ~n while a-priori balancing
  // fixes the distribution before execution.
  const auto trap = gen::table1_work_stealing_trap(200.0);
  const ws::WsResult stealing =
      ws::simulate_work_stealing(trap.instance, trap.initial);
  EXPECT_GE(stealing.final_makespan, 200.0);

  // A single full sweep of pairwise-optimal exchanges fixes the instance
  // (it is not a two-cluster instance, so use OJTB's greedy kernel).
  Schedule s(trap.instance, trap.initial);
  dist::EngineOptions options;
  options.max_exchanges = 200;
  stats::Rng rng(6);
  dist::run_ojtb(s, options, rng);
  EXPECT_LE(s.makespan(), 10.0);  // greedy pairs reach a near-optimal split
}

TEST(Integration, MjtbPipelineOnTypedWorkload) {
  Instance inst = gen::typed_uniform(6, 60, 3, 1.0, 50.0, 7);
  Schedule s(inst, gen::random_assignment(inst, 8));
  dist::EngineOptions options;
  options.max_exchanges = 20'000;
  options.stability_check_interval = 1'000;
  stats::Rng rng(9);
  const dist::RunResult result = dist::run_mjtb(s, options, rng);
  EXPECT_TRUE(is_complete_partition(s));
  if (result.converged) {
    EXPECT_LE(result.final_makespan, dist::mjtb_convergence_bound(inst) + 1e-6);
  }
}

TEST(Integration, MonteCarloReplicationOfDlb2cIsDeterministic) {
  const std::function<double(std::size_t, stats::Rng&)> body =
      [](std::size_t rep, stats::Rng& rng) {
        const Instance inst =
            gen::two_cluster_uniform(4, 2, 48, 1.0, 100.0, 1000 + rep);
        Schedule s(inst, gen::random_assignment(inst, 2000 + rep));
        dist::EngineOptions options;
        options.max_exchanges = 300;
        return dist::run_dlb2c(s, options, rng).final_makespan;
      };
  const auto a = parallel::run_replications<double>(8, 42, body);
  const auto b = parallel::run_replications<double>(8, 42, body);
  EXPECT_EQ(a, b);

  stats::RunningStats summary;
  for (double x : a) summary.add(x);
  EXPECT_GT(summary.mean(), 0.0);
}

TEST(Integration, HeterogeneousEquilibriumResemblesHomogeneous) {
  // A miniature Figure 3 with a quantitative acceptance criterion: the
  // KS distance between the normalized equilibrium distributions of the
  // two-cluster and one-cluster cases stays small.
  auto sample_equilibrium = [](bool two_clusters, std::uint64_t seed) {
    stats::SampleSet samples;
    for (std::uint64_t rep = 0; rep < 6; ++rep) {
      const Instance inst =
          two_clusters
              ? gen::two_cluster_uniform(16, 8, 192, 1.0, 1000.0, seed + rep)
              : gen::identical_uniform(24, 192, 1.0, 1000.0, seed + rep);
      const Cost lb = makespan_lower_bound(inst);
      Cost p_eff = 0.0;
      for (JobId j = 0; j < inst.num_jobs(); ++j) {
        Cost best = inst.group_cost(0, j);
        for (GroupId g = 1; g < inst.num_groups(); ++g) {
          best = std::min(best, inst.group_cost(g, j));
        }
        p_eff = std::max(p_eff, best);
      }
      Schedule s(inst, gen::random_assignment(inst, seed + 50 + rep));
      dist::EngineOptions warmup;
      warmup.max_exchanges = 20 * 24;
      stats::Rng rng = stats::Rng::stream(seed + 100, rep);
      if (two_clusters) {
        dist::run_dlb2c(s, warmup, rng);
      } else {
        dist::run_ojtb(s, warmup, rng);
      }
      dist::EngineOptions sample;
      sample.max_exchanges = 20 * 24;
      sample.record_trace = true;
      const dist::RunResult run = two_clusters
                                      ? dist::run_dlb2c(s, sample, rng)
                                      : dist::run_ojtb(s, sample, rng);
      for (const dist::TracePoint& point : run.trace) {
        samples.add((point.makespan - lb) / p_eff);
      }
    }
    return samples;
  };
  stats::SampleSet het = sample_equilibrium(true, 3000);
  stats::SampleSet hom = sample_equilibrium(false, 4000);
  EXPECT_LT(stats::ks_distance(het, hom), 0.35)
      << "two-cluster equilibrium no longer resembles the homogeneous one";
  // Both concentrate well below the 1.5 level of Figure 2's bound.
  EXPECT_LT(het.quantile(0.99), 1.5);
  EXPECT_LT(hom.quantile(0.99), 1.5);
}

TEST(Integration, InferredTypesMatchGeneratorTypes) {
  Instance inst = gen::typed_uniform(4, 40, 6, 1.0, 20.0, 11);
  const std::size_t declared = inst.num_job_types();
  Instance copy = inst;  // re-infer from scratch
  EXPECT_EQ(copy.infer_job_types(), declared);
}

}  // namespace
}  // namespace dlb
