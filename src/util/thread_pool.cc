#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "util/mutex.h"

namespace csc {

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  std::exception_ptr rethrown;
  {
    MutexLock lock(mu_);
    while (in_flight_ != 0) all_done_.Wait(lock);
    rethrown = std::exchange(first_exception_, nullptr);
  }
  if (rethrown) std::rethrow_exception(rethrown);
}

unsigned ThreadPool::DefaultThreadCount() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::min(hw, 64u);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(lock);
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr thrown;
    try {
      task();
    } catch (...) {
      // Escaping the std::function body would terminate the process;
      // capture instead and let Wait() rethrow the first one.
      thrown = std::current_exception();
    }
    {
      MutexLock lock(mu_);
      if (thrown && !first_exception_) first_exception_ = std::move(thrown);
      if (--in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

SerialWorker::SerialWorker() : worker_([this] { WorkerLoop(); }) {}

SerialWorker::~SerialWorker() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  worker_.join();
}

void SerialWorker::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

void SerialWorker::Drain() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) idle_.Wait(lock);
}

size_t SerialWorker::pending() const {
  MutexLock lock(mu_);
  return in_flight_;
}

void SerialWorker::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(lock);
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      MutexLock lock(mu_);
      if (--in_flight_ == 0) idle_.NotifyAll();
    }
  }
}

namespace {

// One ParallelFor call's shared state. The caller and its pool helpers
// each hold a reference, so a helper that only starts after the call has
// returned still touches live memory — and finds no chunk left to claim.
struct ParallelForCall {
  ParallelForCall(size_t begin, size_t end, size_t grain, size_t chunks,
                  const std::function<void(size_t, size_t)>& body)
      : begin(begin), end(end), grain(grain), chunks(chunks), body(&body) {}

  // Claims chunks off `next` until none are left. `body` points into the
  // caller's frame: it is dereferenced only for a claimed chunk, and the
  // caller does not return before every claimed chunk has finished.
  void RunChunks() {
    for (;;) {
      const size_t chunk = next.fetch_add(1);
      if (chunk >= chunks) return;
      const size_t lo = begin + chunk * grain;
      const size_t hi = lo + std::min(grain, end - lo);
      std::exception_ptr thrown;
      try {
        (*body)(lo, hi);
      } catch (...) {
        thrown = std::current_exception();
      }
      if (thrown) {
        MutexLock lock(mu);
        if (!first_exception) first_exception = std::move(thrown);
      }
      // The last chunk to finish (on whichever thread) wakes the caller.
      if (finished.fetch_add(1) + 1 == chunks) {
        MutexLock lock(mu);
        all_finished = true;
        done.NotifyAll();
      }
    }
  }

  const size_t begin;
  const size_t end;
  const size_t grain;
  const size_t chunks;
  const std::function<void(size_t, size_t)>* const body;
  std::atomic<size_t> next{0};      // next unclaimed chunk index
  std::atomic<size_t> finished{0};  // chunks whose body has returned
  Mutex mu;
  CondVar done;
  bool all_finished CSC_GUARDED_BY(mu) = false;
  std::exception_ptr first_exception CSC_GUARDED_BY(mu);
};

}  // namespace

void ParallelFor(ThreadPool& pool, size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& body) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const size_t chunks = (end - begin - 1) / grain + 1;
  auto call = std::make_shared<ParallelForCall>(begin, end, grain, chunks,
                                                body);
  // One task per helper, not per chunk. A helper that cannot be submitted
  // (allocation failure) just leaves its share to the others: the caller
  // claims chunks too, so the call completes with any number of helpers.
  const size_t helpers = std::min<size_t>(pool.num_threads(), chunks) - 1;
  for (size_t i = 0; i < helpers; ++i) {
    try {
      pool.Submit([call] { call->RunChunks(); });
    } catch (...) {
      break;
    }
  }
  ParallelForCall& state = *call;
  state.RunChunks();
  // Every chunk is claimed by now, so this waits only for chunks other
  // threads are already running — never for a helper still in the queue.
  std::exception_ptr rethrown;
  {
    MutexLock lock(state.mu);
    while (!state.all_finished) state.done.Wait(lock);
    rethrown = std::exchange(state.first_exception, nullptr);
  }
  if (rethrown) std::rethrow_exception(rethrown);
}

}  // namespace csc
