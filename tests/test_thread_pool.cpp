#include "parallel/thread_pool.hpp"
#include "parallel/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace dlb::parallel {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ParallelFor, CoversTheWholeRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, SkewedWorkIsClaimedOnceAndSpreadOverWorkers) {
  // Index 0 is the long item: it does not return until every other index
  // has run. With a shared cursor the other workers claim all of them
  // meanwhile; pre-cut chunks would strand the rest of index 0's chunk
  // behind it until the deadline. Short items also vary 7x in length.
  constexpr std::size_t kCount = 200;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kCount);
  std::vector<std::thread::id> runner(kCount);
  std::atomic<std::size_t> short_done{0};
  bool long_waited_for_all = false;
  parallel_for(pool, kCount, [&](std::size_t i) {
    hits[i].fetch_add(1);
    runner[i] = std::this_thread::get_id();
    if (i == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (short_done.load() < kCount - 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      long_waited_for_all = short_done.load() == kCount - 1;
      return;
    }
    volatile double sink = 0.0;
    for (std::size_t k = 0; k < 1000 * (1 + i % 7); ++k) sink = sink + 1.0;
    short_done.fetch_add(1);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  EXPECT_TRUE(long_waited_for_all);
  for (std::size_t i = 1; i < kCount; ++i) EXPECT_NE(runner[i], runner[0]) << i;
}

TEST(ParallelFor, FewerIndicesThanThreads) {
  ThreadPool pool(8);
  for (const std::size_t count : {1u, 2u, 7u}) {
    std::vector<std::atomic<int>> hits(count);
    parallel_for(pool, count, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << count;
  }
}

TEST(ParallelFor, TheCallerClaimsIndicesNextToTheWorkers) {
  obs::Metrics metrics;
  const obs::Context context{&metrics, nullptr};
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    pool.attach_obs(&context);
    const std::uint64_t tasks_before = metrics.counter("pool.tasks").value();
    constexpr std::size_t kCount = 300;
    constexpr int kCalls = 5;
    const std::thread::id caller = std::this_thread::get_id();
    for (int call = 0; call < kCalls; ++call) {
      std::vector<std::atomic<int>> hits(kCount);
      std::vector<std::thread::id> runner(kCount);
      parallel_for(pool, kCount, [&](std::size_t i) {
        hits[i].fetch_add(1);
        runner[i] = std::this_thread::get_id();
        volatile double sink = 0.0;
        for (int k = 0; k < 2000; ++k) sink = sink + 1.0;
      });
      for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << threads << " threads, index " << i;
      }
      std::vector<std::thread::id> distinct = runner;
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      EXPECT_LE(distinct.size(), threads) << threads << " threads";
      if (threads == 1) {
        EXPECT_EQ(distinct, std::vector<std::thread::id>{caller});
      }
    }
    // One task per worker besides the caller, every call.
    EXPECT_EQ(metrics.counter("pool.tasks").value() - tasks_before,
              static_cast<std::uint64_t>(kCalls) * (threads - 1))
        << threads << " threads";
    pool.attach_obs(nullptr);
  }
}

TEST(MonteCarlo, SequentialAndPooledResultsMatch) {
  const std::function<double(std::size_t, stats::Rng&)> body =
      [](std::size_t rep, stats::Rng& rng) {
        return static_cast<double>(rep) + rng.uniform();
      };
  const auto sequential = run_replications<double>(64, 99, body, nullptr);
  ThreadPool pool(4);
  const auto pooled = run_replications<double>(64, 99, body, &pool);
  ASSERT_EQ(sequential.size(), pooled.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_DOUBLE_EQ(sequential[i], pooled[i]) << i;
  }
}

TEST(MonteCarlo, ReplicationsAreIndependentStreams) {
  const std::function<std::uint64_t(std::size_t, stats::Rng&)> body =
      [](std::size_t, stats::Rng& rng) { return rng(); };
  const auto values = run_replications<std::uint64_t>(32, 7, body);
  // All first draws distinct (collision probability negligible).
  std::vector<std::uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(MonteCarlo, DefaultPoolIsReusable) {
  ThreadPool& pool = default_pool();
  EXPECT_GE(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

}  // namespace
}  // namespace dlb::parallel
