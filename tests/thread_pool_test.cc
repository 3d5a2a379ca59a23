#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace csc {
namespace {

TEST(ThreadPoolTest, ZeroThreadsCoercedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, WaitCanBeRepeated) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): the destructor must still run all 50.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, WaitRethrowsTaskException) {
  // Regression: an exception escaping a task used to unwind through the
  // worker's std::function call and terminate the process (or vanish).
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
}

TEST(ThreadPoolTest, WaitRethrowsFirstExceptionAndRunsRemainingTasks) {
  ThreadPool pool(1);  // one worker => deterministic task order
  std::atomic<int> completed{0};
  pool.Submit([] { throw std::runtime_error("first"); });
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&completed] { completed.fetch_add(1); });
  }
  pool.Submit([] { throw std::logic_error("second"); });
  try {
    pool.Wait();
    FAIL() << "Wait() must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");  // first capture wins; later dropped
  }
  // Every non-throwing task still ran: a throwing task never cancels the
  // rest of the queue.
  EXPECT_EQ(completed.load(), 20);
}

TEST(ThreadPoolTest, ExceptionClearedAfterRethrow) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The pool stays usable and a clean Wait() does not rethrow again.
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositiveAndBounded) {
  unsigned count = ThreadPool::DefaultThreadCount();
  EXPECT_GE(count, 1u);
  EXPECT_LE(count, 64u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(pool, 0, hits.size(), 37, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeRunsNothing) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  ParallelFor(pool, 5, 5, 10,
              [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, ZeroGrainCoercedToOne) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  ParallelFor(pool, 0, 10, 0, [&](size_t begin, size_t end) {
    EXPECT_EQ(end, begin + 1);  // grain 1 -> single-element chunks
    total.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(ParallelForTest, RethrowsBodyException) {
  // Regression: ParallelFor used to lose body exceptions entirely.
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  EXPECT_THROW(
      ParallelFor(pool, 0, 100, 10,
                  [&chunks](size_t begin, size_t) {
                    chunks.fetch_add(1);
                    if (begin == 50) throw std::runtime_error("chunk failed");
                  }),
      std::runtime_error);
  EXPECT_EQ(chunks.load(), 10);  // every chunk still ran
}

TEST(ParallelForTest, MatchesSequentialReduction) {
  ThreadPool pool(ThreadPool::DefaultThreadCount());
  std::vector<int> data(10000);
  std::iota(data.begin(), data.end(), 0);
  std::atomic<long long> parallel_sum{0};
  ParallelFor(pool, 0, data.size(), 128, [&](size_t begin, size_t end) {
    long long local = 0;
    for (size_t i = begin; i < end; ++i) local += data[i];
    parallel_sum.fetch_add(local);
  });
  long long sequential = std::accumulate(data.begin(), data.end(), 0LL);
  EXPECT_EQ(parallel_sum.load(), sequential);
}

TEST(ParallelForTest, ConcurrentCallsKeepTheirOwnCoverageAndExceptions) {
  // Four callers share one 2-thread pool. Each call must cover exactly its
  // own range, and only the caller whose body throws may see an exception.
  ThreadPool pool(2);
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  constexpr size_t kItems = 200;
  constexpr int kThrower = 2;
  std::vector<int> bad_coverage(kCallers, 0);
  std::vector<int> exceptions(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(kItems);
        try {
          ParallelFor(pool, 0, kItems, 7, [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
            if (c == kThrower && begin == 70) {
              throw std::runtime_error("caller " + std::to_string(c));
            }
          });
        } catch (const std::runtime_error& e) {
          EXPECT_EQ(std::string(e.what()), "caller " + std::to_string(c));
          ++exceptions[c];
        }
        for (size_t i = 0; i < kItems; ++i) {
          if (hits[i].load() != 1) ++bad_coverage[c];
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(bad_coverage[c], 0) << "caller " << c;
    EXPECT_EQ(exceptions[c], c == kThrower ? kRounds : 0) << "caller " << c;
  }
}

TEST(ParallelForTest, CompletesWhileEveryPoolWorkerIsBusy) {
  // Both workers are parked on a latch, so no helper can start: the calling
  // thread must run every chunk itself rather than wait on the queue. The
  // wait is bounded, so a regression fails here instead of hanging.
  ThreadPool pool(2);
  std::latch release(1);
  std::atomic<int> parked{0};
  for (unsigned i = 0; i < pool.num_threads(); ++i) {
    pool.Submit([&] {
      parked.fetch_add(1);
      release.wait();
    });
  }
  while (parked.load() < 2) std::this_thread::yield();
  std::vector<std::atomic<int>> hits(100);
  std::promise<void> finished;
  std::future<void> done = finished.get_future();
  std::thread caller([&] {
    ParallelFor(pool, 0, hits.size(), 10, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    finished.set_value();
  });
  const bool completed =
      done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.count_down();  // unpark the workers either way, then clean up
  caller.join();
  pool.Wait();
  EXPECT_TRUE(completed) << "ParallelFor waited on parked pool workers";
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, BackToBackTinyCallsSurviveLateHelpers) {
  // Helpers that start after their call has returned must touch only the
  // call's shared state, never the returned frame or its body.
  ThreadPool pool(4);
  int wrong = 0;
  for (int call = 0; call < 10000; ++call) {
    std::atomic<int> items{0};
    ParallelFor(pool, 0, 4, 1, [&items](size_t begin, size_t end) {
      items.fetch_add(static_cast<int>(end - begin));
    });
    if (items.load() != 4) ++wrong;
  }
  pool.Wait();
  EXPECT_EQ(wrong, 0);
}

TEST(SerialWorkerTest, RunsTasksInSubmissionOrder) {
  SerialWorker worker;
  std::vector<int> order;  // written only from the single worker thread
  for (int i = 0; i < 100; ++i) {
    worker.Submit([&order, i] { order.push_back(i); });
  }
  worker.Drain();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SerialWorkerTest, DrainWithNoTasksReturnsImmediately) {
  SerialWorker worker;
  worker.Drain();  // must not deadlock
  EXPECT_EQ(worker.pending(), 0u);
}

TEST(SerialWorkerTest, DestructorCompletesQueuedTasks) {
  std::atomic<int> completed{0};
  {
    SerialWorker worker;
    for (int i = 0; i < 50; ++i) {
      worker.Submit([&completed] { completed.fetch_add(1); });
    }
  }
  EXPECT_EQ(completed.load(), 50);
}

TEST(SerialWorkerTest, LaterTasksSeeEarlierEffects) {
  // The coalescing pattern the serving Engine relies on: a task may no-op
  // because a predecessor already covered its work.
  SerialWorker worker;
  int covered_up_to = 0;  // worker-thread-only state
  std::atomic<int> rebuilds{0};
  for (int i = 1; i <= 20; ++i) {
    worker.Submit([&, i] {
      if (covered_up_to >= i) return;
      covered_up_to = 20;  // one "rebuild" covers the whole backlog
      rebuilds.fetch_add(1);
    });
  }
  worker.Drain();
  // FIFO order makes this deterministic: the first task covers the whole
  // backlog, every later task finds its work already done.
  EXPECT_EQ(rebuilds.load(), 1);
  EXPECT_EQ(covered_up_to, 20);
}

}  // namespace
}  // namespace csc
