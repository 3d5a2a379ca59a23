#ifndef CSC_LABELING_LABEL_SET_H_
#define CSC_LABELING_LABEL_SET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/ordering.h"
#include "util/common.h"
#include "util/label_entry.h"
#include "util/lifetime_annotations.h"

namespace csc {

/// The hub labels of one vertex in one direction (L_in or L_out).
///
/// Entries identify hubs by *rank* (not vertex id): ranks are what all
/// pruning comparisons use, and because construction emits hubs from rank 0
/// downward, the vector is always sorted by rank — so intersecting two label
/// sets is a linear merge with no lookups. Use VertexOrdering::rank_to_vertex
/// to translate back to vertex ids.
class LabelSet {
 public:
  LabelSet() = default;
  /// A set holding `entries`, rank-sorted, at exactly their size.
  explicit LabelSet(std::span<const LabelEntry> entries)
      : entries_(entries.begin(), entries.end()) {}

  const std::vector<LabelEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  size_t capacity() const { return entries_.capacity(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  void Reserve(size_t n) { entries_.reserve(n); }

  /// Appends an entry whose hub rank is strictly larger than every stored
  /// rank (the static-construction fast path).
  void Append(LabelEntry entry);

  /// Returns the entry with hub rank `hub_rank`, or nullptr.
  const LabelEntry* Find(Rank hub_rank) const;

  /// Dynamic-maintenance upsert (Algorithm 7 semantics are implemented by the
  /// caller; this just inserts at the sorted position or overwrites).
  void InsertOrReplace(LabelEntry entry);

  /// Removes the entry with hub rank `hub_rank`. False if absent.
  bool Remove(Rank hub_rank);

  /// Bytes of packed label data (what Figure 9(b) accounts).
  uint64_t SizeBytes() const { return entries_.size() * sizeof(LabelEntry); }

  friend bool operator==(const LabelSet&, const LabelSet&) = default;

 private:
  LabelEntry* MutableFind(Rank hub_rank);

  std::vector<LabelEntry> entries_;
};

/// Result of a 2-hop join: the shortest distance realized through any common
/// hub and the total multiplicity at that distance (Equations (1)–(2)).
/// `dist == kInfDist` means no common hub, i.e., no path.
struct JoinResult {
  Dist dist = kInfDist;
  Count count = 0;

  friend bool operator==(const JoinResult&, const JoinResult&) = default;
};

/// Linear-merge intersection of `out_labels(s)` with `in_labels(t)`:
/// min over common hubs of d(s,h) + d(h,t), summing count products over all
/// hubs realizing the minimum. The distance-pruning checks of the pruned
/// BFSs, which need only the distance, use HubRow (labeling/hub_row.h).
JoinResult JoinLabels(const LabelSet& out_labels, const LabelSet& in_labels);

/// The free functions the pruned-BFS hooks reach a build's sets through
/// (labeling/hub_row.h); labeling/label_store.h has the LabelStore ones.
inline const void* SetHeader(
    const std::vector<LabelSet>& sets CSC_LIFETIME_BOUND, size_t k) {
  return &sets[k];
}
inline std::span<const LabelEntry> SetRun(const std::vector<LabelSet>& sets,
                                          size_t k) {
  return sets[k].entries();
}
inline void AppendToSet(std::vector<LabelSet>& sets, size_t k,
                        LabelEntry entry) {
  sets[k].Append(entry);
}

}  // namespace csc

#endif  // CSC_LABELING_LABEL_SET_H_
