// The annotated synchronization wrappers (util/mutex.h) and the annotation
// macros themselves (util/thread_annotations.h). Two concerns:
//
//  1. The wrappers behave like the std primitives they wrap — scoped
//     acquisition, reader/writer exclusion, condition-variable wakeups —
//     exercised with real threads so TSan also covers the wrapper layer.
//  2. On non-Clang compilers every CSC_* annotation macro expands to
//     nothing, proven at compile time by stringizing an annotated
//     declaration fragment. A GCC build that suddenly saw a non-empty
//     expansion (someone widened the #if guard) would fail the
//     static_asserts below rather than break mysteriously at parse time.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace csc {
namespace {

#if !defined(__clang__)
// Two-level stringize: CSC_STR2 expands its argument first, so an empty
// macro expansion yields "" (sizeof 1, the NUL).
#define CSC_STR2(x) #x
#define CSC_STR(x) CSC_STR2(x)
static_assert(sizeof(CSC_STR(CSC_GUARDED_BY(mu))) == 1,
              "CSC_GUARDED_BY must expand to nothing outside Clang");
static_assert(sizeof(CSC_STR(CSC_REQUIRES(mu))) == 1,
              "CSC_REQUIRES must expand to nothing outside Clang");
static_assert(sizeof(CSC_STR(CSC_EXCLUDES(mu))) == 1,
              "CSC_EXCLUDES must expand to nothing outside Clang");
static_assert(sizeof(CSC_STR(CSC_ACQUIRE())) == 1,
              "CSC_ACQUIRE must expand to nothing outside Clang");
static_assert(sizeof(CSC_STR(CSC_CAPABILITY("mutex"))) == 1,
              "CSC_CAPABILITY must expand to nothing outside Clang");
static_assert(sizeof(CSC_STR(CSC_SCOPED_CAPABILITY)) == 1,
              "CSC_SCOPED_CAPABILITY must expand to nothing outside Clang");
static_assert(sizeof(CSC_STR(CSC_NO_THREAD_SAFETY_ANALYSIS)) == 1,
              "CSC_NO_THREAD_SAFETY_ANALYSIS must be a no-op outside Clang");
#undef CSC_STR
#undef CSC_STR2
#endif  // !defined(__clang__)

TEST(ThreadAnnotationsTest, MutexLockExcludesConcurrentCriticalSections) {
  Mutex mu;
  int counter CSC_GUARDED_BY(mu) = 0;
  std::vector<std::thread> threads;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 2000;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  MutexLock lock(mu);
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(ThreadAnnotationsTest, MutexTryLockReportsContention) {
  Mutex mu;
  mu.Lock();
  EXPECT_FALSE(mu.TryLock());
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(ThreadAnnotationsTest, SharedMutexAdmitsConcurrentReaders) {
  SharedMutex mu;
  // Both readers hold the lock shared and wait (spinning, so this works on
  // one core too) until the other is also inside: if shared acquisition
  // excluded them, neither could see readers_in == 2 and the test would
  // time out instead of passing.
  std::atomic<int> readers_in{0};
  std::atomic<bool> both_seen{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      ReaderMutexLock lock(mu);
      readers_in.fetch_add(1, std::memory_order_acq_rel);
      while (readers_in.load(std::memory_order_acquire) < 2) {
        std::this_thread::yield();
      }
      both_seen.store(true, std::memory_order_release);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_TRUE(both_seen.load());
}

TEST(ThreadAnnotationsTest, SharedMutexWriterExcludesReaders) {
  SharedMutex mu;
  int value CSC_GUARDED_BY(mu) = 0;
  std::atomic<int> readers_in{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        ReaderMutexLock lock(mu);
        readers_in.fetch_add(1, std::memory_order_acq_rel);
        EXPECT_GE(value, 0);
        readers_in.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 200; ++i) {
      WriterMutexLock lock(mu);
      // Writer exclusion: no reader can be inside while we hold exclusive.
      EXPECT_EQ(readers_in.load(std::memory_order_acquire), 0);
      ++value;
    }
  });
  for (std::thread& thread : threads) thread.join();
  WriterMutexLock lock(mu);
  EXPECT_EQ(value, 200);
}

TEST(ThreadAnnotationsTest, SharedMutexWriterWaitsForInFlightReader) {
  SharedMutex mu;
  std::atomic<bool> writer_in{false};
  mu.LockShared();
  std::thread writer([&] {
    WriterMutexLock lock(mu);
    writer_in.store(true, std::memory_order_release);
  });
  // However long the writer has had, it cannot be in while the reader is.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_in.load(std::memory_order_acquire));
  mu.UnlockShared();
  writer.join();
  EXPECT_TRUE(writer_in.load());
}

TEST(ThreadAnnotationsTest, SharedMutexPendingWriterHoldsOffNewReaders) {
  SharedMutex mu;
  std::atomic<bool> first_in{false};
  std::atomic<bool> release_first{false};
  std::atomic<bool> writer_done{false};
  std::thread first_reader([&] {
    ReaderMutexLock lock(mu);
    first_in.store(true, std::memory_order_release);
    while (!release_first.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!first_in.load(std::memory_order_acquire)) std::this_thread::yield();
  std::thread writer([&] {
    WriterMutexLock lock(mu);
    writer_done.store(true, std::memory_order_release);
  });
  // The writer is pending (it waits for the first reader) once a try-read
  // is refused. A lock that never refuses fails here instead of hanging.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool writer_pending = false;
  while (!writer_pending && std::chrono::steady_clock::now() < give_up) {
    if (mu.TryLockShared()) {
      mu.UnlockShared();
      std::this_thread::yield();
    } else {
      writer_pending = true;
    }
  }
  if (!writer_pending) {
    release_first.store(true, std::memory_order_release);
    first_reader.join();
    writer.join();
    FAIL() << "a pending writer never refused a new reader";
  }
  // Readers arriving now, each on its own thread and so its own stripe,
  // must wait behind the pending writer: none gets in before its Unlock.
  constexpr int kReaders = 8;
  std::atomic<int> admitted{0};
  std::atomic<int> admitted_early{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      ReaderMutexLock lock(mu);
      if (!writer_done.load(std::memory_order_acquire)) {
        admitted_early.fetch_add(1, std::memory_order_relaxed);
      }
      admitted.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(admitted.load(), 0);
  EXPECT_FALSE(writer_done.load());
  release_first.store(true, std::memory_order_release);
  first_reader.join();
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(admitted.load(), kReaders);
  EXPECT_EQ(admitted_early.load(), 0);
}

TEST(ThreadAnnotationsTest, CondVarWakesExplicitWhileLoopWaiter) {
  Mutex mu;
  CondVar cv;
  bool ready CSC_GUARDED_BY(mu) = false;
  int observed = -1;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.Wait(lock);
    observed = 1;
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();
  EXPECT_EQ(observed, 1);
}

}  // namespace
}  // namespace csc
