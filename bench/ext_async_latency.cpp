// Extension bench: DLB2C as a genuinely asynchronous protocol over a simulated
// network (REQUEST / ACCEPT-or-REJECT / TRANSFER with per-message latency
// and per-machine locking). The paper's sequential exchange model is the
// zero-latency limit; this bench quantifies how message latency and session
// rejections slow the approach to the 1.5x-cent threshold.

#include <iostream>

#include "centralized/clb2c.hpp"
#include "core/generators.hpp"
#include "dist/async_runner.hpp"
#include "dist/dlb2c.hpp"
#include "registry.hpp"
#include "stats/table.hpp"

namespace {

void run(const dlb::bench::RunContext& ctx, dlb::bench::MetricSet& metrics) {
  using dlb::stats::TablePrinter;

  std::cout << "Extension — asynchronous DLB2C vs message latency "
               "(clusters 16+8, 192 jobs, think time 1.0)\n"
               "====================================================\n\n";

  const dlb::Instance inst =
      dlb::gen::two_cluster_uniform(16, 8, 192, 1.0, 1000.0, 7);
  const dlb::Cost cent = dlb::centralized::clb2c_schedule(inst).makespan();
  const dlb::dist::Dlb2cKernel kernel;

  double zero_latency_ratio = 0.0;
  double high_latency_ratio = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t migrations = 0;
  TablePrinter table({"latency", "sessions/mach", "rejected", "messages",
                      "migrations", "final_Cmax", "vs_cent"});
  for (const double latency : {0.0, 0.05, 0.2, 0.5, 1.0, 2.0}) {
    dlb::Schedule s(inst, dlb::gen::random_assignment(inst, 8));
    dlb::dist::AsyncOptions options;
    options.message_latency = latency;
    options.duration = 40.0;
    options.seed = 9;
    options.obs = ctx.obs;
    const dlb::dist::AsyncRunResult result =
        dlb::dist::run_async(s, kernel, options);
    if (latency == 0.0) zero_latency_ratio = result.final_makespan / cent;
    high_latency_ratio = result.final_makespan / cent;
    messages += result.messages;
    migrations += result.migrations;
    table.add_row(
        {TablePrinter::fixed(latency, 2),
         TablePrinter::fixed(result.exchanges_per_machine(24), 2),
         std::to_string(result.sessions_rejected),
         std::to_string(result.messages), std::to_string(result.migrations),
         TablePrinter::fixed(result.final_makespan, 0),
         TablePrinter::fixed(result.final_makespan / cent, 3)});
  }
  table.print(std::cout);
  std::cout << "\nShape check: at low latency the protocol matches the "
               "sequential model's quality within the same number of "
               "sessions per machine; as latency approaches the think time, "
               "sessions complete more slowly and quality at a fixed time "
               "horizon degrades gracefully.\n";

  metrics.metric("zero_latency_vs_cent", zero_latency_ratio);
  metrics.metric("highest_latency_vs_cent", high_latency_ratio);
  metrics.counter("messages", static_cast<double>(messages));
  metrics.counter("migrations", static_cast<double>(migrations));
}

}  // namespace

DLB_BENCH_REGISTER("ext_async_latency",
                   "Extension: asynchronous DLB2C protocol quality vs "
                   "message latency over a simulated network",
                   run);
