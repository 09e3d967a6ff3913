#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

namespace dlb::parallel {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
    if (obs_queue_depth_) {
      obs_queue_depth_->set(static_cast<double>(queue_.size()));
    }
  }
  task_ready_.notify_one();
}

void ThreadPool::attach_obs(const obs::Context* context) {
  obs::Metrics* metrics = obs::metrics_of(context);
  std::lock_guard lock(mutex_);
  obs_tasks_ = metrics ? &metrics->counter("pool.tasks") : nullptr;
  obs_queue_depth_ = metrics ? &metrics->gauge("pool.queue_depth") : nullptr;
  obs_task_seconds_ =
      metrics ? &metrics->histogram("pool.task_seconds") : nullptr;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    obs::Histogram* task_seconds = nullptr;
    obs::Counter* tasks = nullptr;
    {
      std::unique_lock lock(mutex_);
      task_ready_.wait(lock,
                       [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      // Snapshot the sinks under the lock: attach_obs may race with idle
      // workers, and the handles themselves are lock-free afterwards.
      task_seconds = obs_task_seconds_;
      tasks = obs_tasks_;
    }
    if (task_seconds) {
      const auto start = std::chrono::steady_clock::now();
      task();
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      task_seconds->observe(elapsed.count());
      tasks->add();
    } else {
      task();
    }
    {
      std::lock_guard lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  std::atomic<std::size_t> cursor{0};
  // noexcept: a throwing body ends the program on the caller as on a
  // worker, so the caller never unwinds past `cursor` while a worker may
  // still claim from it.
  const auto claim = [&cursor, &body, count]() noexcept {
    for (std::size_t i = cursor.fetch_add(1); i < count;
         i = cursor.fetch_add(1)) {
      body(i);
    }
  };
  const std::size_t helpers = std::min(count, pool.num_threads()) - 1;
  for (std::size_t w = 0; w < helpers; ++w) pool.submit(claim);
  claim();
  pool.wait_idle();
}

}  // namespace dlb::parallel
