// A dynamic cluster: jobs keep arriving on random machines and completing,
// while DLB2C repair bursts rebalance the waiting queues in the background
// (Section IV's deployment mode). Compare the response times against the
// same arrivals with the repair budget removed.
//
//   $ ./dynamic_cluster

#include <iostream>
#include <string>

#include "core/generators.hpp"
#include "dist/dlb2c.hpp"
#include "dist/open_system/open_engine.hpp"
#include "dist/peer_selector.hpp"
#include "stats/table.hpp"

int main() {
  using dlb::stats::TablePrinter;

  // 512 jobs arrive on a Poisson clock onto 6+3 machines and land on a
  // uniformly random machine (the decentralized premise: no placement
  // logic at submission).
  const dlb::Instance inst =
      dlb::gen::two_cluster_uniform(6, 3, 512, 1.0, 100.0, 41);
  const dlb::dist::ArrivalPlan plan = dlb::dist::ArrivalPlan::poisson(0.1, 5);
  const dlb::dist::Dlb2cKernel kernel;
  const dlb::dist::UniformPeerSelector selector;
  const dlb::dist::OpenSystemEngine engine(kernel, selector);

  const auto run = [&](std::size_t budget) {
    dlb::dist::OpenSystemOptions options;
    options.arrivals = &plan;
    options.repair_every = 25.0;
    options.repair_budget = budget;  // 0 freezes the queues.
    dlb::Schedule schedule(inst);
    return engine.run(schedule, options, 42);
  };
  const dlb::dist::OpenRunReport balanced = run(24);
  const dlb::dist::OpenRunReport frozen = run(0);

  std::cout << "Open cluster (6+3 machines, 512 Poisson arrivals, random "
               "placement, 24 exchanges every 25 time units)\n\n";
  TablePrinter table({"", "with DLB2C repair", "frozen"});
  const auto row = [&](const std::string& name, double with,
                       double without) {
    table.add_row({name, TablePrinter::fixed(with, 1),
                   TablePrinter::fixed(without, 1)});
  };
  row("response mean", balanced.response_mean, frozen.response_mean);
  row("response p99", balanced.response_p99, frozen.response_p99);
  row("queue p99 at arrival", balanced.queue_p99, frozen.queue_p99);
  row("end time", balanced.end_time, frozen.end_time);
  table.add_row({"migrations", std::to_string(balanced.migrations),
                 std::to_string(frozen.migrations)});
  table.print(std::cout);

  std::cout << "\nPeriodic pairwise balancing absorbs the arrivals: jobs "
               "land anywhere, and each repair burst moves the waiting ones "
               "toward the machines that run them fastest.\n";
  return 0;
}
