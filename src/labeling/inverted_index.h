#ifndef CSC_LABELING_INVERTED_INDEX_H_
#define CSC_LABELING_INVERTED_INDEX_H_

#include <unordered_set>
#include <vector>

#include "graph/ordering.h"
#include "util/common.h"

namespace csc {

struct HubLabeling;  // labeling/hub_labeling.h

/// Which side of a hub labeling an inverted index mirrors.
enum class LabelDirection {
  kIn,   // L_in: entries (h, d, c) with paths h -> owner
  kOut,  // L_out: entries (h, d, c) with paths owner -> h
};

/// Inverted hub index used by minimality cleaning (Algorithm 8, §V.A):
/// for a hub rank `h`, Vertices(h) is the set of vertices whose label set
/// (one direction; keep one InvertedIndex per direction) contains `h` as a
/// hub. The paper calls these inv_in(·) and inv_out(·).
///
/// The dynamic maintenance algorithms mutate labels and this mirror
/// together; ConsistentWith() checks the two never drift (asserted by tests
/// after every maintained update).
class InvertedIndex {
 public:
  InvertedIndex() = default;
  explicit InvertedIndex(size_t num_ranks) : by_hub_(num_ranks) {}

  void Resize(size_t num_ranks) { by_hub_.resize(num_ranks); }
  size_t num_ranks() const { return by_hub_.size(); }
  bool empty() const { return by_hub_.empty(); }
  void Clear();

  /// Records that `vertex`'s label set contains hub `hub`. Grows the rank
  /// table on demand, so maintenance never indexes out of range.
  void Add(Rank hub, Vertex vertex);

  /// Forgets the (hub, vertex) pair; a no-op if absent (label mutations may
  /// race ahead of the mirror during cleaning, which repairs lazily).
  void Remove(Rank hub, Vertex vertex);

  bool Contains(Rank hub, Vertex vertex) const;

  const std::unordered_set<Vertex>& Vertices(Rank hub) const;

  /// Rebuilds this index, over hub ranks [0, num_ranks), as the exact
  /// mirror of one direction of `labeling`.
  void BuildFrom(const HubLabeling& labeling, LabelDirection direction,
                 size_t num_ranks);

  /// True iff this index holds exactly the (hub, owner) pairs of the given
  /// direction of `labeling` — the invariant maintenance must preserve.
  bool ConsistentWith(const HubLabeling& labeling,
                      LabelDirection direction) const;

  /// Total number of (hub, vertex) pairs; equals the total label entry count
  /// when the index is consistent with its labeling (checked in tests).
  uint64_t TotalEntries() const;

 private:
  std::vector<std::unordered_set<Vertex>> by_hub_;
};

}  // namespace csc

#endif  // CSC_LABELING_INVERTED_INDEX_H_
