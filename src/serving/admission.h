#ifndef CSC_SERVING_ADMISSION_H_
#define CSC_SERVING_ADMISSION_H_

/// Overload-protection vocabulary for the serving tier: a `Deadline` budget
/// type, a bounded `AdmissionQueue` with high/low watermarks, and a
/// `CircuitBreaker` — plus the shared enums and option structs the Engine /
/// ShardedEngine overload surface is built on (`QueryStatus`,
/// `HealthState`, `QueryOptions`, `AdmissionOptions`). Nothing here shapes
/// offered load: the engine sheds on backlog caps and deadlines instead.
///
/// Everything here is internally synchronized (one private Mutex per
/// primitive, no lock-order edges to the engine locks): callers may invoke
/// any method from any thread while holding no engine lock, and the engine
/// never calls into these primitives while holding `query_mu_`.
/// The `Deadline` type is plain value state — no synchronization at all —
/// so it can be passed by const reference across threads freely.

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace csc {

/// Serving health, coarse enough to drive a load balancer:
///   kStarting    built/loaded state not yet committed; queries answer empty.
///   kHealthy     serving, backlog under the admission cap.
///   kDegraded    at least one shard is quarantined/degraded or the BFS
///                fallback breaker is not closed (sharded tier only — a
///                single Engine never reports kDegraded).
///   kDraining    BeginDrain() called: new writes shed while the admitted
///                backlog lands and in-flight queries finish.
///   kOverloaded  the async backlog is at its configured cap; new writes
///                would shed (or block, with admission.block_on_full).
enum class HealthState : uint8_t {
  kStarting = 0,
  kHealthy,
  kDegraded,
  kDraining,
  kOverloaded,
};

/// Typed outcome of a deadline'd or metered query. Partial results are
/// never silent: anything short of a full answer carries kTimeout (budget
/// ran out; per-item masks say how far the scan got) or kShed (the
/// degraded-path breaker or fallback gate refused the work outright).
enum class [[nodiscard]] QueryStatus : uint8_t {
  kOk = 0,
  kTimeout,
  kShed,
};

/// An absolute time budget. Default-constructed deadlines are unbounded
/// (never expire); `After(budget)` pins one `budget` from now, and a budget
/// past the clock's range (milliseconds::max(), centuries) is unbounded too.
/// Checks are cheap (one steady_clock read), so query loops can test per
/// chunk.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  // unbounded
  static Deadline After(std::chrono::milliseconds budget) {
    const Clock::time_point now = Clock::now();
    // Compared in milliseconds: converting `budget` to the clock's
    // nanoseconds could itself overflow.
    if (budget >= std::chrono::floor<std::chrono::milliseconds>(
                      Clock::time_point::max() - now)) {
      return Deadline();
    }
    Deadline d;
    d.when_ = now + budget;
    return d;
  }
  static Deadline At(Clock::time_point when) {
    Deadline d;
    d.when_ = when;
    return d;
  }

  bool unbounded() const { return when_ == Clock::time_point::max(); }
  bool expired() const { return !unbounded() && Clock::now() >= when_; }
  /// Remaining budget, clamped to >= 0; milliseconds::max() when unbounded.
  /// Rounded up, so an unexpired deadline always reports >= 1ms (safe to
  /// feed straight into CondVar::WaitFor without a busy loop).
  std::chrono::milliseconds remaining() const {
    if (unbounded()) return std::chrono::milliseconds::max();
    const Clock::time_point now = Clock::now();
    if (now >= when_) return std::chrono::milliseconds(0);
    return std::chrono::ceil<std::chrono::milliseconds>(when_ - now);
  }
  Clock::time_point when() const { return when_; }

 private:
  Clock::time_point when_ = Clock::time_point::max();
};

/// Write-side backpressure knobs (EngineOptions::admission). Both caps
/// bound the *async* update backlog (`unlanded_`); zero means unbounded.
/// A batch that would push the backlog past a cap is shed with
/// UpdateVerdict::kOverloaded — or, with block_on_full, the writer blocks
/// until the worker lands enough backlog or the caller's deadline expires.
struct AdmissionOptions {
  /// Max unlanded batches queued behind the rebuild worker (0 = unbounded).
  uint64_t max_pending_batches = 0;
  /// Max total pending ops across unlanded batches (0 = unbounded). Only
  /// enforced against a non-empty backlog, so a single batch larger than
  /// the cap still admits eventually instead of shedding forever.
  uint64_t max_pending_ops = 0;
  /// Block the writer (up to its deadline) instead of shedding immediately.
  bool block_on_full = false;
};

/// Per-query budget carried through the Query/BatchQuery/QueryAll/Girth/
/// Screen overloads of Engine and ShardedEngine. Default = unbounded: the
/// budget-free forms forward here with it, so the answers are identical
/// and the status is kOk (a degraded shard answers by exact, unmetered
/// BFS).
struct QueryOptions {
  Deadline deadline;
};

struct AdmissionQueueOptions {
  /// Admission refuses when in-flight units would exceed this (0 = unbounded).
  uint64_t high_watermark = 0;
  /// Once shedding, admission stays refused until in-flight drains to this
  /// (0 = same as high_watermark, i.e. no hysteresis — a plain counting
  /// semaphore). The gap keeps an overloaded server from flapping between
  /// admit and shed on every release.
  uint64_t low_watermark = 0;
};

/// Bounded in-flight gate with high/low-watermark hysteresis. Units are
/// caller-defined (requests, ops, bytes). TryAcquire sheds immediately;
/// AcquireUntil blocks up to a deadline.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionQueueOptions options = {});

  bool TryAcquire(uint64_t units = 1) CSC_EXCLUDES(mu_);
  /// Blocks until admitted or `deadline` expires (false = shed).
  bool AcquireUntil(uint64_t units, const Deadline& deadline)
      CSC_EXCLUDES(mu_);
  void Release(uint64_t units = 1) CSC_EXCLUDES(mu_);

  uint64_t in_flight() const CSC_EXCLUDES(mu_);
  bool shedding() const CSC_EXCLUDES(mu_);
  uint64_t admitted() const CSC_EXCLUDES(mu_);
  uint64_t shed() const CSC_EXCLUDES(mu_);
  /// Admissions that blocked at least once before succeeding.
  uint64_t blocked() const CSC_EXCLUDES(mu_);

 private:
  /// Admission decision + hysteresis bookkeeping; does not take units.
  bool AdmitLocked(uint64_t units) CSC_REQUIRES(mu_);

  const AdmissionQueueOptions options_;
  mutable Mutex mu_;
  CondVar room_cv_;
  uint64_t in_flight_ CSC_GUARDED_BY(mu_) = 0;
  bool shedding_ CSC_GUARDED_BY(mu_) = false;
  uint64_t admitted_ CSC_GUARDED_BY(mu_) = 0;
  uint64_t shed_ CSC_GUARDED_BY(mu_) = 0;
  uint64_t blocked_ CSC_GUARDED_BY(mu_) = 0;
};

struct CircuitBreakerOptions {
  /// Consecutive failures (while closed) that trip the breaker open.
  uint32_t failure_threshold = 5;
  /// Concurrent probes admitted while half-open.
  uint32_t half_open_probes = 1;
  /// How long the breaker stays open before probing again.
  std::chrono::milliseconds cooldown{1000};
};

/// Classic closed/open/half-open circuit breaker. Closed admits everything;
/// `failure_threshold` consecutive RecordFailure()s open it; after
/// `cooldown` the next Allow() flips to half-open and admits up to
/// `half_open_probes` probes; a probe success closes the breaker, a probe
/// failure reopens it (restarting the cooldown).
class CircuitBreaker {
 public:
  enum class State : uint8_t { kClosed = 0, kOpen, kHalfOpen };

  explicit CircuitBreaker(CircuitBreakerOptions options = {});

  /// May this request proceed? (Drives the open->half-open transition.)
  bool Allow() CSC_EXCLUDES(mu_);
  void RecordSuccess() CSC_EXCLUDES(mu_);
  void RecordFailure() CSC_EXCLUDES(mu_);

  State state() const CSC_EXCLUDES(mu_);
  /// Total state transitions (closed->open, open->half-open, ...).
  uint64_t transitions() const CSC_EXCLUDES(mu_);

 private:
  void TransitionLocked(State next) CSC_REQUIRES(mu_);

  const CircuitBreakerOptions options_;
  mutable Mutex mu_;
  State state_ CSC_GUARDED_BY(mu_) = State::kClosed;
  uint32_t consecutive_failures_ CSC_GUARDED_BY(mu_) = 0;
  uint32_t half_open_in_flight_ CSC_GUARDED_BY(mu_) = 0;
  Deadline::Clock::time_point opened_at_ CSC_GUARDED_BY(mu_){};
  uint64_t transitions_ CSC_GUARDED_BY(mu_) = 0;
};

/// Point-in-time admission/overload counters for one Engine (summable
/// across shards via Accumulate): live backlog gauges and peaks, shed and
/// blocked writes, and the read-side timeout count.
struct AdmissionStats {
  uint64_t pending_batches = 0;   ///< unlanded batches right now
  uint64_t pending_ops = 0;       ///< unlanded ops right now
  uint64_t peak_pending_batches = 0;
  uint64_t peak_pending_ops = 0;
  uint64_t shed_batches = 0;      ///< writes refused (cap or draining)
  uint64_t blocked_admissions = 0;///< writes that blocked, then admitted
  uint64_t query_timeouts = 0;    ///< deadline'd queries returning kTimeout
  uint64_t drains = 0;            ///< BeginDrain() calls accepted

  /// Counters and gauges sum; summed peaks are an upper bound on the
  /// deployment-wide peak (per-shard peaks need not coincide in time).
  void Accumulate(const AdmissionStats& other) {
    pending_batches += other.pending_batches;
    pending_ops += other.pending_ops;
    peak_pending_batches += other.peak_pending_batches;
    peak_pending_ops += other.peak_pending_ops;
    shed_batches += other.shed_batches;
    blocked_admissions += other.blocked_admissions;
    query_timeouts += other.query_timeouts;
    drains += other.drains;
  }
};

}  // namespace csc

#endif  // CSC_SERVING_ADMISSION_H_
