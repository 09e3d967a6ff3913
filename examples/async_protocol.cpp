// DLB2C as a real distributed protocol: machines exchange REQUEST /
// ACCEPT-or-REJECT / TRANSFER messages over a simulated network with
// latency, lock themselves for the duration of a session, and back off on
// rejection. The paper's sequential exchange model is the zero-latency
// limit of this runtime.
//
//   $ ./async_protocol

#include <iostream>

#include "centralized/clb2c.hpp"
#include "core/generators.hpp"
#include "dist/async_runner.hpp"
#include "dist/dlb2c.hpp"
#include "stats/table.hpp"

int main() {
  using dlb::stats::TablePrinter;

  const dlb::Instance inst =
      dlb::gen::two_cluster_uniform(12, 6, 144, 1.0, 500.0, 31);
  const dlb::Cost cent = dlb::centralized::clb2c_schedule(inst).makespan();
  const dlb::dist::Dlb2cKernel kernel;

  std::cout << "Asynchronous DLB2C on 12+6 machines, 144 jobs.\n"
            << "Think time 1.0, horizon 30 time units; cent (CLB2C) = "
            << cent << "\n\n";

  TablePrinter table({"latency", "completed", "rejected", "messages",
                      "final_Cmax", "vs_cent"});
  for (const double latency : {0.01, 0.1, 0.5, 1.0}) {
    dlb::Schedule s(inst, dlb::gen::random_assignment(inst, 32));
    dlb::dist::AsyncOptions options;
    options.message_latency = latency;
    options.duration = 30.0;
    options.seed = 33;
    const auto result = dlb::dist::run_async(s, kernel, options);
    table.add_row({TablePrinter::fixed(latency, 2),
                   std::to_string(result.exchanges),
                   std::to_string(result.sessions_rejected),
                   std::to_string(result.messages),
                   TablePrinter::fixed(result.final_makespan, 0),
                   TablePrinter::fixed(result.final_makespan / cent, 3)});
  }
  table.print(std::cout);

  std::cout << "\nEach session costs 3-4 messages (request, accept/reject, "
               "transfer); rejections come from peers already mid-session. "
               "Latency only matters once it competes with the think time — "
               "the protocol itself is latency-tolerant because sessions "
               "pipeline across disjoint machine pairs.\n";
  return 0;
}
