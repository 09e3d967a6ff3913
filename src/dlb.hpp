#pragma once

// Umbrella header for the dlb library: decentralized load balancing for
// fully heterogeneous machines (Cheriere & Saule, 2015). Include this for
// quick experiments; production code should include the specific module
// headers it needs.

#include "core/assignment.hpp"       // IWYU pragma: export
#include "core/generators.hpp"       // IWYU pragma: export
#include "core/instance.hpp"         // IWYU pragma: export
#include "core/instance_io.hpp"      // IWYU pragma: export
#include "core/load_table.hpp"       // IWYU pragma: export
#include "core/lower_bounds.hpp"     // IWYU pragma: export
#include "core/metrics.hpp"          // IWYU pragma: export
#include "core/name_registry.hpp"    // IWYU pragma: export
#include "core/schedule.hpp"         // IWYU pragma: export
#include "core/types.hpp"            // IWYU pragma: export
#include "core/validation.hpp"       // IWYU pragma: export

#include "centralized/clb2c.hpp"           // IWYU pragma: export
#include "centralized/ect.hpp"             // IWYU pragma: export
#include "centralized/exact_bnb.hpp"       // IWYU pragma: export
#include "centralized/list_scheduling.hpp" // IWYU pragma: export
#include "centralized/lpt.hpp"             // IWYU pragma: export
#include "centralized/min_min.hpp"         // IWYU pragma: export
#include "centralized/two_choices.hpp"     // IWYU pragma: export

#include "pairwise/basic_greedy.hpp"        // IWYU pragma: export
#include "pairwise/greedy_pair_balance.hpp" // IWYU pragma: export
#include "pairwise/kernel_registry.hpp"     // IWYU pragma: export
#include "pairwise/pair_clb2c.hpp"          // IWYU pragma: export
#include "pairwise/pair_kernel.hpp"         // IWYU pragma: export
#include "pairwise/pairwise_optimal.hpp"    // IWYU pragma: export
#include "pairwise/typed_greedy.hpp"        // IWYU pragma: export

#include "dist/async_runner.hpp"              // IWYU pragma: export
#include "dist/convergence.hpp"               // IWYU pragma: export
#include "dist/dlb2c.hpp"                     // IWYU pragma: export
#include "dist/dlbkc.hpp"                     // IWYU pragma: export
#include "dist/exchange_engine.hpp"           // IWYU pragma: export
#include "dist/mjtb.hpp"                      // IWYU pragma: export
#include "dist/ojtb.hpp"                      // IWYU pragma: export
#include "dist/parallel_exchange_engine.hpp"  // IWYU pragma: export
#include "dist/peer_selector.hpp"             // IWYU pragma: export
#include "dist/run_report.hpp"                // IWYU pragma: export
#include "dist/selector_registry.hpp"         // IWYU pragma: export

#include "centralized/lenstra.hpp"       // IWYU pragma: export
#include "centralized/local_search.hpp"  // IWYU pragma: export
#include "cli/args.hpp"                  // IWYU pragma: export
#include "cli/commands.hpp"              // IWYU pragma: export
#include "lp/simplex.hpp"                // IWYU pragma: export
#include "markov/mixing.hpp"             // IWYU pragma: export
#include "net/network.hpp"               // IWYU pragma: export
#include "stats/ascii_plot.hpp"          // IWYU pragma: export

#include "des/engine.hpp"            // IWYU pragma: export
#include "ws/work_stealing_sim.hpp"  // IWYU pragma: export

#include "markov/makespan_pdf.hpp"   // IWYU pragma: export
#include "markov/scc.hpp"            // IWYU pragma: export
#include "markov/state_space.hpp"    // IWYU pragma: export
#include "markov/stationary.hpp"     // IWYU pragma: export
#include "markov/transitions.hpp"    // IWYU pragma: export

#include "obs/metrics.hpp"           // IWYU pragma: export
#include "obs/obs.hpp"               // IWYU pragma: export
#include "obs/trace.hpp"             // IWYU pragma: export

#include "parallel/monte_carlo.hpp"  // IWYU pragma: export
#include "parallel/thread_pool.hpp"  // IWYU pragma: export

#include "stats/csv.hpp"             // IWYU pragma: export
#include "stats/histogram.hpp"       // IWYU pragma: export
#include "stats/rng.hpp"             // IWYU pragma: export
#include "stats/summary.hpp"         // IWYU pragma: export
#include "stats/table.hpp"           // IWYU pragma: export
