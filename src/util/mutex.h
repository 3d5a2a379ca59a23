#ifndef CSC_UTIL_MUTEX_H_
#define CSC_UTIL_MUTEX_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "util/thread_annotations.h"

namespace csc {

/// Annotated wrappers over the standard synchronization primitives. All
/// locked state in the library goes through these (tools/lint_invariants.py
/// rejects raw std::mutex / std::thread outside src/util/), because only
/// capability-annotated types participate in Clang's thread safety
/// analysis: a `Mutex` member plus `CSC_GUARDED_BY` on the state it guards
/// turns every unlocked access into a compile error under -Wthread-safety.
///
/// Mutex and CondVar are deliberately thin — same semantics, same cost,
/// zero state beyond the wrapped primitive. SharedMutex is the exception: a
/// striped reader lock whose readers share no written cache line (see its
/// comment). The RAII guards mirror the standard ones (MutexLock ~
/// std::unique_lock, ReaderMutexLock ~ std::shared_lock, WriterMutexLock ~
/// std::unique_lock over a shared_mutex). Condition waits go through
/// CondVar, which takes the MutexLock itself so a wait can never be
/// attempted on the wrong mutex.

/// An exclusive mutex (wraps std::mutex) carrying the "mutex" capability.
class CSC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CSC_ACQUIRE() { mu_.lock(); }
  void Unlock() CSC_RELEASE() { mu_.unlock(); }
  bool TryLock() CSC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII exclusive lock over a Mutex. Scoped: the analysis credits the
/// capability to the enclosing scope for the guard's lifetime.
class CSC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CSC_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() CSC_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// A readers-writer lock carrying the "shared_mutex" capability, built for
/// read-mostly state: a striped big-reader lock. Each reader thread counts
/// itself in its own 64-byte stripe, so concurrent readers write no shared
/// cache line. A writer raises one flag, then waits for every stripe to
/// drain; a reader that finds the flag up backs off until it drops, then
/// retries. Writers serialize on an internal mutex.
///
/// Writers are preferred: once a writer is pending no new reader gets in.
/// So a thread must never take the shared side while it already holds it —
/// with a writer pending, the nested acquire deadlocks (std::shared_mutex
/// tolerated that; this lock does not). Declare entry points that take the
/// lock CSC_EXCLUDES so the analysis rejects such nesting. The lock is
/// phase-fair, though: the next writer waits until every reader held off by
/// the previous one is in, so a stream of writers cannot starve readers.
class CSC_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() CSC_ACQUIRE() {
    writer_mu_.lock();
    // Readers held off by the previous writer go first, so back-to-back
    // writers cannot starve them. Their retries succeed: only a writer
    // holding writer_mu_ raises the flag, and this one has not yet.
    for (uint32_t n = held_off_.load(std::memory_order_seq_cst); n != 0;
         n = held_off_.load(std::memory_order_seq_cst)) {
      held_off_.wait(n, std::memory_order_seq_cst);
    }
    // seq_cst pairs with TryEnter: either a reader sees the flag, or this
    // writer sees the reader's count.
    writer_.store(1, std::memory_order_seq_cst);
    for (Stripe& stripe : stripes_) {
      for (uint32_t n = stripe.readers.load(std::memory_order_seq_cst); n != 0;
           n = stripe.readers.load(std::memory_order_seq_cst)) {
        stripe.readers.wait(n, std::memory_order_seq_cst);
      }
    }
  }
  void Unlock() CSC_RELEASE() {
    writer_.store(0, std::memory_order_seq_cst);
    writer_.notify_all();
    writer_mu_.unlock();
  }
  void LockShared() CSC_ACQUIRE_SHARED() {
    std::atomic<uint32_t>& readers = stripes_[ReaderStripe()].readers;
    if (TryEnter(readers)) return;
    held_off_.fetch_add(1, std::memory_order_seq_cst);
    do {
      writer_.wait(1, std::memory_order_seq_cst);
    } while (!TryEnter(readers));
    if (held_off_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      held_off_.notify_all();
    }
  }
  /// False, without blocking, while a writer holds or awaits the lock.
  bool TryLockShared() CSC_TRY_ACQUIRE_SHARED(true) {
    return TryEnter(stripes_[ReaderStripe()].readers);
  }
  void UnlockShared() CSC_RELEASE_SHARED() {
    Leave(stripes_[ReaderStripe()].readers);
  }

 private:
  static constexpr size_t kStripes = 32;
  struct alignas(64) Stripe {
    std::atomic<uint32_t> readers{0};
  };

  /// The calling thread's stripe: threads are dealt stripes round-robin on
  /// first use, so threads that start reading together get distinct ones.
  static size_t ReaderStripe() {
    static std::atomic<size_t> next{0};
    thread_local const size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
  }

  bool TryEnter(std::atomic<uint32_t>& readers) {
    readers.fetch_add(1, std::memory_order_seq_cst);
    if (writer_.load(std::memory_order_seq_cst) == 0) return true;
    Leave(readers);
    return false;
  }

  void Leave(std::atomic<uint32_t>& readers) {
    // Only a pending writer waits on a stripe; wake it when this stripe
    // drains.
    if (readers.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        writer_.load(std::memory_order_seq_cst) != 0) {
      readers.notify_all();
    }
  }

  Stripe stripes_[kStripes];
  alignas(64) std::atomic<uint32_t> writer_{0};
  // Readers waiting for a writer's flag to drop.
  std::atomic<uint32_t> held_off_{0};
  std::mutex writer_mu_;
};

/// RAII shared (reader) lock over a SharedMutex.
class CSC_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) CSC_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() CSC_RELEASE() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive (writer) lock over a SharedMutex.
class CSC_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) CSC_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() CSC_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to MutexLock (wraps std::condition_variable).
/// There is deliberately no predicate-lambda overload: the canonical wait
/// loop
///
///   MutexLock lock(mu_);
///   while (!condition) cv_.Wait(lock);
///
/// keeps the guarded reads in the function the analysis is checking — a
/// predicate lambda would be analyzed as a separate unannotated function
/// and every guarded member it reads would (rightly) warn.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock`'s mutex and blocks; the mutex is re-held on
  /// return. As with std::condition_variable, spurious wakeups happen —
  /// always wait in a condition loop.
  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  /// Like Wait, but gives up after `timeout`. Returns false on timeout, true
  /// on notification or spurious wakeup — either way the mutex is re-held,
  /// and the caller's condition loop must re-check its predicate (a timed
  /// wait can return true without the condition holding, and false even
  /// though the condition became true just before the deadline).
  bool WaitFor(MutexLock& lock, std::chrono::milliseconds timeout) {
    return cv_.wait_for(lock.lock_, timeout) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace csc

#endif  // CSC_UTIL_MUTEX_H_
