// Figure 3 reproduction: the distribution of Cmax in DLB2C's *dynamic
// equilibrium*, estimated by simulation, for
//   * two clusters of 64 + 32 machines (heterogeneous case), and
//   * one homogeneous cluster of 96 machines,
// with 768 jobs of cost U[1, 1000] (per cluster), as in Section VII-B.
//
// Normalization mirrors Figure 2: x = (Cmax - LB) / p_eff, where LB is the
// fractional lower bound (two clusters) or sum/m (one cluster) and p_eff is
// the largest job cost at its better cluster — the simulation analogue of
// p_max. The paper's claim: both curves look alike and the mass sits well
// below 1.5.

#include <iostream>
#include <optional>

#include "bench_util.hpp"
#include "centralized/clb2c.hpp"
#include "core/generators.hpp"
#include "core/lower_bounds.hpp"
#include "dist/dlb2c.hpp"
#include "dist/ojtb.hpp"
#include "registry.hpp"
#include "stats/ascii_plot.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace {

using dlb::Cost;

struct Config {
  const char* name;
  bool two_clusters;
  std::size_t m1, m2;  // m2 = 0 for homogeneous
};

/// Effective p_max: the largest cost any job pays on its best cluster.
Cost effective_pmax(const dlb::Instance& inst) {
  Cost p = 0.0;
  for (dlb::JobId j = 0; j < inst.num_jobs(); ++j) {
    Cost best = inst.group_cost(0, j);
    for (dlb::GroupId g = 1; g < inst.num_groups(); ++g) {
      best = std::min(best, inst.group_cost(g, j));
    }
    p = std::max(p, best);
  }
  return p;
}

dlb::stats::Histogram equilibrium_histogram(const Config& config,
                                            std::size_t replications,
                                            std::uint64_t seed,
                                            dlb::stats::SampleSet& samples,
                                            std::uint64_t& exchanges) {
  dlb::stats::Histogram histogram(0.0, 2.0, 40);
  const std::size_t m = config.m1 + config.m2;
  for (std::size_t rep = 0; rep < replications; ++rep) {
    const dlb::Instance inst =
        config.two_clusters
            ? dlb::gen::two_cluster_uniform(config.m1, config.m2, 768, 1.0,
                                            1000.0, seed + rep)
            : dlb::gen::identical_uniform(config.m1, 768, 1.0, 1000.0,
                                          seed + rep);
    const Cost lb = dlb::makespan_lower_bound(inst);
    const Cost p_eff = effective_pmax(inst);

    dlb::Schedule s(inst, dlb::gen::random_assignment(inst, seed + 100 + rep));
    dlb::stats::Rng rng = dlb::stats::Rng::stream(seed + 200, rep);

    // Warm up into the equilibrium: 20 exchanges per machine.
    dlb::dist::EngineOptions warmup;
    warmup.max_exchanges = 20 * m;
    if (config.two_clusters) {
      dlb::dist::run_dlb2c(s, warmup, rng);
    } else {
      dlb::dist::run_ojtb(s, warmup, rng);
    }
    // Sample the equilibrium: 30 more exchanges per machine, traced.
    dlb::dist::EngineOptions sample;
    sample.max_exchanges = 30 * m;
    sample.record_trace = true;
    const dlb::dist::RunResult result =
        config.two_clusters ? dlb::dist::run_dlb2c(s, sample, rng)
                            : dlb::dist::run_ojtb(s, sample, rng);
    exchanges += warmup.max_exchanges + result.exchanges;
    for (const dlb::dist::TracePoint& point : result.trace) {
      const double normalized = (point.makespan - lb) / p_eff;
      histogram.add(normalized);
      samples.add(normalized);
    }
  }
  return histogram;
}

void print_histogram(const char* name, dlb::stats::Histogram& histogram) {
  using dlb::stats::TablePrinter;
  std::cout << name << "  (" << histogram.total_weight() << " samples)\n"
            << "x=(Cmax-LB)/p_eff | density\n";
  std::vector<double> xs;
  std::vector<double> densities;
  for (std::size_t b = 0; b < histogram.bins(); ++b) {
    if (histogram.count(b) == 0.0) continue;
    xs.push_back(histogram.bin_center(b));
    densities.push_back(histogram.density(b));
  }
  dlb::stats::BarChartOptions bars;
  bars.label_precision = 3;
  bars.value_precision = 4;
  dlb::stats::bar_chart(std::cout, xs, densities, bars);
  std::cout << "mean=" << TablePrinter::fixed(histogram.mean(), 3)
            << "  p50=" << TablePrinter::fixed(histogram.quantile(0.5), 3)
            << "  p99=" << TablePrinter::fixed(histogram.quantile(0.99), 3)
            << "\n\n";
}

void maybe_csv(const std::optional<std::string>& dir, const char* name,
               dlb::stats::Histogram& histogram) {
  if (!dir) return;
  dlb::benchutil::CsvFile csv(*dir, name, {"x", "density", "mass"});
  for (std::size_t b = 0; b < histogram.bins(); ++b) {
    if (histogram.count(b) == 0.0) continue;
    csv.row({dlb::stats::CsvWriter::num(histogram.bin_center(b)),
             dlb::stats::CsvWriter::num(histogram.density(b)),
             dlb::stats::CsvWriter::num(histogram.mass(b))});
  }
}

void run(const dlb::bench::RunContext& ctx, dlb::bench::MetricSet& metrics) {
  std::cout << "Figure 3 — Cmax distribution in the dynamic equilibrium "
               "(768 jobs, costs U[1,1000])\n"
               "==========================================================="
               "=================\n\n";

  const Config heterogeneous{"two clusters 64+32 (DLB2C)", true, 64, 32};
  const Config homogeneous{"one cluster 96 (pairwise greedy)", false, 96, 0};
  const std::size_t replications = ctx.scale(50, 6);

  dlb::stats::SampleSet het_samples;
  dlb::stats::SampleSet hom_samples;
  std::uint64_t exchanges = 0;
  auto het = equilibrium_histogram(heterogeneous, replications, 1000,
                                   het_samples, exchanges);
  auto hom = equilibrium_histogram(homogeneous, replications, 5000,
                                   hom_samples, exchanges);
  print_histogram(heterogeneous.name, het);
  print_histogram(homogeneous.name, hom);
  maybe_csv(ctx.csv_dir, "fig3_two_clusters", het);
  maybe_csv(ctx.csv_dir, "fig3_one_cluster", hom);

  const double ks = dlb::stats::ks_distance(het_samples, hom_samples);
  std::cout << "Kolmogorov-Smirnov distance between the two normalized "
               "distributions: "
            << dlb::stats::TablePrinter::fixed(ks, 4)
            << "  (0 = identical, 1 = disjoint)\n\n";
  std::cout << "Shape check: the two distributions are qualitatively alike "
               "(same support, similar quantiles, small KS distance) — the "
               "heterogeneous case behaves like the homogeneous one, and "
               "the equilibrium imbalance stays low.\n";

  metrics.metric("ks_distance", ks);
  metrics.metric("het_p99", het.quantile(0.99));
  metrics.metric("hom_p99", hom.quantile(0.99));
  metrics.metric("het_mean", het.mean());
  metrics.counter("exchanges", static_cast<double>(exchanges));
  metrics.counter("equilibrium_samples",
                  static_cast<double>(het_samples.size() +
                                      hom_samples.size()));
}

}  // namespace

DLB_BENCH_REGISTER("fig3_equilibrium_distribution",
                   "Figure 3: Cmax distribution in DLB2C's dynamic "
                   "equilibrium, heterogeneous vs homogeneous",
                   run);
