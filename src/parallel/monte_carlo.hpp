#pragma once

// Monte-Carlo replication driver: runs N independent replications of an
// experiment, each with its own deterministic RNG stream derived from
// (seed, replication index). Results are identical whatever the thread
// count — including sequential execution on a 1-core machine.

#include <cstdint>
#include <functional>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace dlb::parallel {

/// Runs `body(rep, rng)` for rep in [0, replications) and collects results
/// in replication order. `pool == nullptr` runs sequentially.
template <typename Result>
std::vector<Result> run_replications(
    std::size_t replications, std::uint64_t seed,
    const std::function<Result(std::size_t, stats::Rng&)>& body,
    ThreadPool* pool = nullptr) {
  std::vector<Result> results(replications);
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (std::size_t rep = 0; rep < replications; ++rep) {
      stats::Rng rng = stats::Rng::stream(seed, rep);
      results[rep] = body(rep, rng);
    }
    return results;
  }
  parallel_for(*pool, replications, [&](std::size_t rep) {
    stats::Rng rng = stats::Rng::stream(seed, rep);
    results[rep] = body(rep, rng);
  });
  return results;
}

/// Shared process-wide pool for the bench binaries (lazily constructed).
/// Unless configured, it sizes itself to the hardware concurrency.
ThreadPool& default_pool();

/// Resizes the shared pool to exactly `threads` workers (0 = hardware
/// concurrency). The bench driver calls this once from `--threads N`; it
/// must not race with work running on the pool. Replication results never
/// depend on the pool size — only wall time does.
void set_default_pool_threads(std::size_t threads);

}  // namespace dlb::parallel
