#ifndef CSC_CSC_TRENDING_H_
#define CSC_CSC_TRENDING_H_

#include <cstdint>
#include <vector>

#include "csc/screening.h"
#include "util/common.h"

namespace csc {

/// Change feed between consecutive screening snapshots of a dynamic graph:
/// which vertices entered the top-k, which left, and whose shortest cycle
/// got shorter — the alerts a monitoring deployment (Application 1) pages
/// on, extracted from the raw per-tick TopKByCycleCount output.
struct TrendReport {
  /// Tick index this report compares against the previous one.
  uint64_t tick = 0;
  /// Vertices present in this top-k but not the previous one.
  std::vector<ScreeningHit> entered;
  /// Vertices present in the previous top-k but not this one.
  std::vector<ScreeningHit> exited;
  /// Vertices in both whose shortest-cycle length strictly decreased —
  /// the strongest fraud signal (a new, quicker feedback route appeared).
  std::vector<ScreeningHit> shortened;

  bool HasAlerts() const {
    return !entered.empty() || !exited.empty() || !shortened.empty();
  }
};

/// Accumulates screening snapshots and emits per-tick change reports.
///
/// Usage per tick: apply the tick's updates to the index, run
/// TopKByCycleCount, feed the hits to Observe(). The tracker is index-form
/// agnostic — it only sees hit lists — so it works identically over the
/// dynamic and frozen serving forms.
class TrendTracker {
 public:
  /// `top_k` is recorded for reporting; the tracker trusts the caller to
  /// pass consistently sized snapshots.
  explicit TrendTracker(size_t top_k) : top_k_(top_k) {}

  /// Ingests the next snapshot and returns what changed since the last one.
  /// The first snapshot reports every hit as `entered`.
  TrendReport Observe(const std::vector<ScreeningHit>& hits);

  size_t top_k() const { return top_k_; }
  uint64_t ticks_observed() const { return next_tick_; }

  /// The most recent snapshot (empty before the first Observe).
  const std::vector<ScreeningHit>& current() const { return current_; }

 private:
  size_t top_k_;
  uint64_t next_tick_ = 0;
  std::vector<ScreeningHit> current_;
};

}  // namespace csc

#endif  // CSC_CSC_TRENDING_H_
