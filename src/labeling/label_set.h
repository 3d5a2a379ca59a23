#ifndef CSC_LABELING_LABEL_SET_H_
#define CSC_LABELING_LABEL_SET_H_

#include <cstdint>
#include <vector>

#include "graph/ordering.h"
#include "util/common.h"
#include "util/label_entry.h"

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
  const std::vector<LabelEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  void Reserve(size_t n) { entries_.reserve(n); }

  /// Appends an entry whose hub rank is strictly larger than every stored
  /// rank (the static-construction fast path).
  void Append(LabelEntry entry);

  /// Append() if the entry fits the capacity already reserved, so that it
  /// allocates nothing; false (and no change) otherwise. The parallel
  /// builder appends this way on pool threads, whose malloc arenas would
  /// otherwise keep the sets' freed buffers (labeling/parallel_build.h).
  bool TryAppend(LabelEntry entry) {
    if (entries_.size() == entries_.capacity()) return false;
    Append(entry);
    return true;
  }

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

}  // namespace csc

#endif  // CSC_LABELING_LABEL_SET_H_
