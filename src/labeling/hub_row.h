#ifndef CSC_LABELING_HUB_ROW_H_
#define CSC_LABELING_HUB_ROW_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "labeling/label_set.h"
#include "util/common.h"

namespace csc {

/// The distance-pruning check of a pruned counting BFS (Algorithm 3 line
/// 13), answered against a dense copy of the root's label set.
///
/// Every dequeue of a pass asks the same question of one fixed label set
/// L(hub): the shortest hub->w (or w->hub) distance through some common hub.
/// A merge join pays |L(hub)| + |L(w)| per dequeue. Pruned landmark labeling
/// (Akiba, Iwata & Yoshida, SIGMOD 2013) instead scatters L(hub) into a
/// rank-indexed array once per pass, so each check is one scan of L(w) with
/// O(1) lookups. Only the distance is kept: no pruning check reads counts.
///
/// Usage per pass: Load(L(hub)) (or LoadShifted) before the first dequeue,
/// Join(L(w)) per dequeue, Clear(L(hub)) after the last, each given the
/// set's entries as a span. L(hub) must not change in between; every caller
/// loads a label set its pass never writes. Clear restores every slot to
/// kInfDist in O(|L(hub)|), so one row serves a whole build.
class HubRow {
 public:
  HubRow() = default;
  /// A row for hub ranks [0, num_ranks).
  explicit HubRow(size_t num_ranks) : dist_(num_ranks, kInfDist) {}

  /// Scatters the entries of `hub_labels` with rank below `bound`.
  void Load(std::span<const LabelEntry> hub_labels,
            Rank bound = std::numeric_limits<Rank>::max()) {
    assert(end_ == 0 && "HubRow::Load without Clear");
    for (const LabelEntry& e : hub_labels) {
      if (e.hub() >= bound) break;  // rank-sorted: the rest are above too
      dist_[e.hub()] = e.dist();
      end_ = e.hub() + 1;
    }
  }

  /// Scatters the entries of `labels` with rank below `bound`, each one step
  /// further than stored: the row of a set that is `labels` shifted by one.
  /// A CSC forward pass of hub v_i loads L_out(v_i) this way from its
  /// couple's L_out(v_o) with `bound` = rank(v_i), which skips exactly the
  /// two hubs the §IV.E identity drops (v_i, and v_o, ranked right after
  /// it); Clear(labels) then resets the row.
  void LoadShifted(std::span<const LabelEntry> labels, Rank bound) {
    assert(end_ == 0 && "HubRow::LoadShifted without Clear");
    for (const LabelEntry& e : labels) {
      if (e.hub() >= bound) break;  // rank-sorted: the rest are above too
      dist_[e.hub()] = e.dist() + 1;
      end_ = e.hub() + 1;
    }
  }

  /// Resets the slots `hub_labels` (the set last loaded) can have set.
  void Clear(std::span<const LabelEntry> hub_labels) {
    for (const LabelEntry& e : hub_labels) {
      dist_[e.hub()] = kInfDist;
    }
    end_ = 0;
  }

  /// min over common hubs of row + d(w-side entry): equals
  /// JoinLabels(...).dist of the loaded set (restricted to the load bound)
  /// with `w_labels`; kInfDist when no hub is shared.
  Dist Join(std::span<const LabelEntry> w_labels) const {
    // Packed distances are < 2^17, so a 64-bit sum with a kInfDist slot
    // stays >= kInfDist and the min needs no branch on empty slots.
    uint64_t best = kInfDist;
    for (const LabelEntry& e : w_labels) {
      if (e.hub() >= end_) break;  // no loaded rank at or above end_
      best = std::min<uint64_t>(best, uint64_t{dist_[e.hub()]} + e.dist());
    }
    return best >= kInfDist ? kInfDist : static_cast<Dist>(best);
  }

  /// The distance stored for hub rank `r` (kInfDist if none is loaded).
  Dist at(Rank r) const { return dist_[r]; }
  size_t size() const { return dist_.size(); }

 private:
  std::vector<Dist> dist_;
  Rank end_ = 0;  // one past the highest loaded rank; 0 when clear
};

/// Look-ahead of DequeueAndPrefetch; WKT@0.5 builds ran alike at 4/6/8/12.
inline constexpr size_t kJoinLookAhead = 6;

/// Returns queue[head++] of a pass whose join at w scans set w >> shift of
/// `sets` (shift 1 where a pair's two G_b vertices share one stored set),
/// first prefetching for later joins: the set's header 2 * kJoinLookAhead
/// dequeues ahead, then the first lines of its entries kJoinLookAhead ahead.
/// `sets` is a LabelStore or a vector of LabelSets, reached through
/// SetHeader and SetRun. (Returning the vertex keeps GCC from deleting a call whose
/// only effect is a prefetch.)
template <typename Queue, typename Sets>
typename Queue::value_type DequeueAndPrefetch(const Queue& queue, size_t& head,
                                              const Sets& sets,
                                              unsigned shift = 0) {
  if (head + 2 * kJoinLookAhead < queue.size()) {
    __builtin_prefetch(
        SetHeader(sets, queue[head + 2 * kJoinLookAhead] >> shift));
  }
  if (head + kJoinLookAhead < queue.size()) {
    const std::span<const LabelEntry> run =
        SetRun(sets, queue[head + kJoinLookAhead] >> shift);
    // At most 8 lines: the hardware streams a longer run's tail in.
    constexpr size_t kPerLine = 64 / sizeof(LabelEntry);
    const size_t prefix = std::min(run.size(), 8 * kPerLine);
    for (size_t k = 0; k < prefix; k += kPerLine) {
      __builtin_prefetch(run.data() + k);
    }
  }
  return queue[head++];
}

}  // namespace csc

#endif  // CSC_LABELING_HUB_ROW_H_
