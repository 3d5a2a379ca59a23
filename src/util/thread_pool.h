#ifndef CSC_UTIL_THREAD_POOL_H_
#define CSC_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace csc {

/// A fixed-size worker pool for embarrassingly parallel library operations
/// (batch queries, parallel validation, multi-graph benchmark sweeps).
///
/// Semantics are deliberately minimal: Submit() enqueues a task, Wait()
/// blocks until every submitted task has finished. Tasks must not Wait() on
/// the pool they run on (that waits for themselves); use ParallelFor for
/// the common blocked-range case instead of managing tasks directly.
///
/// The index structures themselves are single-writer: the pool is only ever
/// handed read-only work over a built index (queries), never maintenance.
class ThreadPool {
 public:
  /// Starts `num_threads` workers. Zero is coerced to 1.
  explicit ThreadPool(unsigned num_threads);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task) CSC_EXCLUDES(mu_);

  /// Blocks until every task submitted so far has completed. If any task
  /// exited with an exception since the last Wait(), rethrows the first
  /// one captured (later ones are dropped; when several threads Wait()
  /// concurrently, exactly one of them receives it). Without this, a
  /// throwing task would unwind through the worker's std::function call
  /// and terminate the process. Exceptions still pending at destruction
  /// are discarded — Wait() before tearing down if you care.
  void Wait() CSC_EXCLUDES(mu_);

  unsigned num_threads() const {
    // workers_ is written only during construction, so the size is an
    // immutable property — no lock needed.
    return static_cast<unsigned>(workers_.size());
  }

  /// Hardware concurrency, clamped to [1, 64] (0 is reported by some
  /// containers; 64 caps the worst case for a library default).
  static unsigned DefaultThreadCount();

 private:
  void WorkerLoop() CSC_EXCLUDES(mu_);

  Mutex mu_;
  CondVar work_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ CSC_GUARDED_BY(mu_);
  size_t in_flight_ CSC_GUARDED_BY(mu_) = 0;  // queued + running tasks
  bool shutting_down_ CSC_GUARDED_BY(mu_) = false;
  // First task throw since last Wait().
  std::exception_ptr first_exception_ CSC_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;  // immutable after construction
};

/// Splits [begin, end) into chunks of at most `grain` items and runs
/// `body(chunk_begin, chunk_end)` across the pool, blocking until all chunks
/// finish. `grain == 0` is coerced to 1; an empty range runs nothing.
///
/// The calling thread works too: it and up to min(num_threads, chunks) - 1
/// pool helpers (one Submit each, not one per chunk) claim chunk indexes
/// from a shared atomic cursor, so chunks run in unspecified order and on
/// unspecified threads — the caller's included. The body must be safe to
/// run concurrently against itself. The caller waits only for chunks
/// another thread has already claimed, never for a helper still queued
/// behind other work: the call completes even when every pool worker is
/// busy, and nesting a ParallelFor inside a pool task (of the same pool or
/// another) cannot deadlock — with no idle worker, the nested call simply
/// runs its chunks on its own thread.
///
/// A body that throws does not abort the remaining chunks — they all still
/// run — but the first exception captured is rethrown here once every chunk
/// has finished. Completion and exception delivery are per call (not
/// ThreadPool::Wait): concurrent ParallelFor calls sharing one pool neither
/// block on each other's chunks nor receive each other's exceptions.
void ParallelFor(ThreadPool& pool, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& body);

/// One background thread draining a FIFO of tasks in submission order, with
/// a Drain() barrier — the minimal executor for work that must be off the
/// calling thread but strictly serialized against itself (the serving
/// Engine's asynchronous static-index rebuilds: at most one rebuild in
/// flight, batches admitted mid-rebuild coalesce into the next task).
///
/// Unlike ThreadPool there is deliberately no parallelism: tasks see every
/// earlier task's effects, so a task may cheaply no-op when a predecessor
/// already covered its work.
class SerialWorker {
 public:
  SerialWorker();

  /// Completes every queued task, then joins the thread.
  ~SerialWorker();

  SerialWorker(const SerialWorker&) = delete;
  SerialWorker& operator=(const SerialWorker&) = delete;

  /// Enqueues a task. Never blocks; tasks run in submission order.
  void Submit(std::function<void()> task) CSC_EXCLUDES(mu_);

  /// Blocks until every task submitted so far has completed.
  void Drain() CSC_EXCLUDES(mu_);

  /// Queued + currently running tasks (a snapshot; racy by nature).
  size_t pending() const CSC_EXCLUDES(mu_);

 private:
  void WorkerLoop() CSC_EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVar work_available_;
  CondVar idle_;
  std::deque<std::function<void()>> queue_ CSC_GUARDED_BY(mu_);
  size_t in_flight_ CSC_GUARDED_BY(mu_) = 0;  // queued + running tasks
  bool shutting_down_ CSC_GUARDED_BY(mu_) = false;
  std::thread worker_;
};

}  // namespace csc

#endif  // CSC_UTIL_THREAD_POOL_H_
