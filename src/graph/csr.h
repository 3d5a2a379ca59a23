#ifndef CSC_GRAPH_CSR_H_
#define CSC_GRAPH_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "util/common.h"

namespace csc {

/// An immutable compressed-sparse-row snapshot of a DiGraph.
///
/// DiGraph optimizes for edge insertion/deletion (per-vertex vectors); CSR
/// optimizes for traversal: both directions live in two contiguous arrays,
/// so BFS-heavy consumers (validators, bulk analytics) avoid a pointer chase
/// per vertex. Neighbor order matches the DiGraph's sorted adjacency, so
/// traversals are deterministic and results are interchangeable with
/// DiGraph-based code.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Snapshots `graph`. O(n + m).
  static CsrGraph FromGraph(const DiGraph& graph);

  Vertex num_vertices() const {
    return out_offsets_.empty()
               ? 0
               : static_cast<Vertex>(out_offsets_.size() - 1);
  }
  uint64_t num_edges() const { return out_targets_.size(); }

  std::span<const Vertex> OutNeighbors(Vertex v) const {
    return {out_targets_.data() + out_offsets_[v],
            out_targets_.data() + out_offsets_[v + 1]};
  }
  std::span<const Vertex> InNeighbors(Vertex v) const {
    return {in_targets_.data() + in_offsets_[v],
            in_targets_.data() + in_offsets_[v + 1]};
  }

  size_t OutDegree(Vertex v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  size_t InDegree(Vertex v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }
  size_t Degree(Vertex v) const { return OutDegree(v) + InDegree(v); }

  /// Resident bytes of the four arrays (capacity ignored).
  uint64_t SizeBytes() const;

 private:
  std::vector<uint64_t> out_offsets_;  // n + 1 entries
  std::vector<Vertex> out_targets_;    // m entries
  std::vector<uint64_t> in_offsets_;
  std::vector<Vertex> in_targets_;
};

/// Single-source shortest distances over a CSR snapshot via BFS.
/// `forward` selects out-edge (true) or in-edge (false) traversal.
/// Unreached vertices hold kInfDist.
std::vector<Dist> CsrBfsDistances(const CsrGraph& graph, Vertex source,
                                  bool forward);

}  // namespace csc

#endif  // CSC_GRAPH_CSR_H_
