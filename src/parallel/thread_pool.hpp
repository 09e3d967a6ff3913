#pragma once

// A small fixed-size thread pool for embarrassingly parallel experiment
// replication (Monte-Carlo sweeps in the fig3/fig5 benches). On a 1-core
// host it degrades to a single worker; determinism of experiments is
// guaranteed by giving every replication its own RNG stream, never by
// execution order.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace dlb::parallel {

class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency() (>= 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_threads() const noexcept {
    return workers_.size();
  }

  /// Enqueues a task. Tasks must not throw (std::terminate otherwise —
  /// experiment code catches its own errors).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Attaches observability sinks (counter pool.tasks, gauge
  /// pool.queue_depth, histogram pool.task_seconds). `context` must
  /// outlive the pool; null detaches. Not thread-safe against concurrent
  /// submit(): attach before handing the pool to producers.
  void attach_obs(const obs::Context* context);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
  obs::Counter* obs_tasks_ = nullptr;
  obs::Gauge* obs_queue_depth_ = nullptr;
  obs::Histogram* obs_task_seconds_ = nullptr;
};

/// Runs `body(i)` once for every i in [0, count) and blocks until all
/// calls have returned. min(count, num_threads()) threads run `body`: the
/// calling thread and min(count, num_threads()) - 1 worker tasks, so a
/// one-thread pool runs every index on the caller. Each claims the next
/// unclaimed index from one shared cursor, so indices start in ascending
/// order and a thread that finishes early takes more: a caller that puts
/// its longest items first gets longest-processing-time-first list
/// scheduling. Which thread runs an index, and when, is unspecified, so
/// `body` must be safe to run concurrently on distinct indices and results
/// must not depend on the order; writing each result to its own slot does
/// that. `body` must not throw: an exception that leaves it calls
/// std::terminate, on the caller as on a worker (see submit()).
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body);

}  // namespace dlb::parallel
