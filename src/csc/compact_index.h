#ifndef CSC_CSC_COMPACT_INDEX_H_
#define CSC_CSC_COMPACT_INDEX_H_

#include <optional>
#include <string>
#include <vector>

#include "csc/csc_index.h"
#include "labeling/hub_labeling.h"

namespace csc {

/// Index reduction (§IV.E): the CSC labeling with only one label set per
/// couple pair and direction — the library's interchange payload.
///
/// Because couple pairs are rank-consecutive, the labels of a pair are
/// redundant copies of each other:
///   L_in(v_o)  = shift(L_in(v_i)) ∪ {(v_o, 0, 1)}
///   L_out(v_i) = shift(L_out(v_o) \ {hub v_i, hub v_o}) ∪ {(v_i, 0, 1)}
/// where shift(·) adds 1 to every distance. CompactIndex keeps exactly
/// L_in(v_i) and L_out(v_o) — which happen to be the two sets SCCnt queries
/// read — halving the resident size, and can reconstruct the full labeling
/// ("when the complete index must be recovered, we just need to modify the
/// distance element and the v_i-hub out-label entry").
///
/// It is a payload only, with no query path of its own: its "CSCI"
/// serialization is the interchange format every CSC backend loads
/// (FrozenIndex::FromCompact, either arena encoding); a build freezes
/// straight from construction instead (FrozenIndex::Build). CSC
/// construction writes exactly these two label sets and CscIndex stores
/// exactly them, so FromIndex() is a copy.
/// ExpandToFull() alone derives the other two sets: the four-set labeling
/// the tests hold the index to.
class CompactIndex {
 public:
  /// Copies the two label sets a CSC index stores.
  static CompactIndex FromIndex(const CscIndex& index);

  Vertex num_original_vertices() const {
    return static_cast<Vertex>(in_labels_.size());
  }
  uint64_t TotalEntries() const;
  uint64_t SizeBytes() const { return TotalEntries() * sizeof(LabelEntry); }

  /// Reconstructs the full (uncompacted) labeling over G_b's 2n vertices
  /// (the §IV.E identity applied to the two stored sets).
  HubLabeling ExpandToFull() const;

  /// Binary little-endian serialization (magic + version checked on load).
  std::string Serialize() const;
  static std::optional<CompactIndex> Deserialize(const std::string& bytes);

  friend bool operator==(const CompactIndex&, const CompactIndex&) = default;

 private:
  friend class FrozenIndex;  // encodes the two sets

  std::vector<LabelSet> in_labels_;   // L_in(v_i), indexed by original vertex
  std::vector<LabelSet> out_labels_;  // L_out(v_o), indexed by original vertex
  // G_b's rank -> vertex permutation (§IV.E expansion and the frozen form's
  // couple ranks need the hubs' vertices).
  std::vector<Vertex> rank_to_vertex_;
};

}  // namespace csc

#endif  // CSC_CSC_COMPACT_INDEX_H_
