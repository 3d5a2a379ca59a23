#ifndef CSC_CSC_COUPLE_BUILDERS_H_
#define CSC_CSC_COUPLE_BUILDERS_H_

// Construction internals shared by the sequential CSC builder
// (csc_index.cc), the parallel one (parallel_couple_builder.cc) and the
// forms that take the labels they write (CscIndex, CompactIndex and
// FrozenIndex). The two builders live in separate translation units so
// that the parallel builder's code does not change how the compiler builds
// the sequential one: with both in one unit, the sequential build of
// WKT@0.5 measured 7% slower than alone (0.775 against 0.724 s; medians of
// 20 alternating runs, 4 vCPU, GCC 12.2 -O3).

#include <cstdint>
#include <span>
#include <vector>

#include "csc/csc_index.h"
#include "graph/bipartite.h"
#include "graph/digraph.h"
#include "graph/ordering.h"
#include "labeling/hub_labeling.h"
#include "labeling/label_store.h"
#include "util/common.h"

namespace csc {

/// The input graph as Algorithm 3 walks it, renamed by rank as pruned
/// landmark labeling does (Akiba, Iwata & Yoshida, SIGMOD 2013): pair k is
/// the vertex of rank k, whose couple vertices have the bipartite ranks 2k
/// (v_i) and 2k + 1 (v_o). The builders use bipartite ranks as vertex ids,
/// so CoupleOf/IsInVertex keep their meaning and rank pruning is one compare
/// with the neighbor's id. Only G_b's non-couple edges are stored, each as
/// the bipartite rank it leads to, in one flat array per direction.
class RankedCsr {
 public:
  /// `graph` under `order`, plus isolated pairs up to `num_pairs`, ranked
  /// below every vertex of `graph`.
  RankedCsr(const DiGraph& graph, const VertexOrdering& order,
            Vertex num_pairs)
      : succ_begin_(num_pairs + 1, 0), pred_begin_(num_pairs + 1, 0) {
    const std::vector<Rank>& rank = order.vertex_to_rank;
    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
      succ_begin_[rank[v] + 1] = graph.OutDegree(v);
      pred_begin_[rank[v] + 1] = graph.InDegree(v);
    }
    for (Vertex k = 0; k < num_pairs; ++k) {
      succ_begin_[k + 1] += succ_begin_[k];
      pred_begin_[k + 1] += pred_begin_[k];
    }
    succ_.resize(succ_begin_[num_pairs]);
    pred_.resize(pred_begin_[num_pairs]);
    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
      Rank* succ = succ_.data() + succ_begin_[rank[v]];
      for (Vertex w : graph.OutNeighbors(v)) *succ++ = 2 * rank[w];
      Rank* pred = pred_.data() + pred_begin_[rank[v]];
      for (Vertex u : graph.InNeighbors(v)) *pred++ = 2 * rank[u] + 1;
    }
  }

  /// Bipartite ranks: twice the number of pairs.
  Rank num_ranks() const {
    return 2 * static_cast<Rank>(succ_begin_.size() - 1);
  }

  /// G_b successors of x's out-vertex (in-vertex ranks), for x of either
  /// side of a pair.
  std::span<const Rank> Successors(Rank x) const {
    return {succ_.data() + succ_begin_[x >> 1],
            succ_.data() + succ_begin_[(x >> 1) + 1]};
  }
  /// G_b predecessors of x's in-vertex (out-vertex ranks).
  std::span<const Rank> Predecessors(Rank x) const {
    return {pred_.data() + pred_begin_[x >> 1],
            pred_.data() + pred_begin_[(x >> 1) + 1]};
  }

 private:
  std::vector<uint64_t> succ_begin_;
  std::vector<uint64_t> pred_begin_;
  std::vector<Rank> succ_;
  std::vector<Rank> pred_;
};

/// The two label sets CSC construction writes, in the label stores it grows
/// them in (labeling/label_store.h), by pair rank k, the rank of original
/// vertex v: in[k] is L_in(v_i) and out[k] is L_out(v_o). Set k holds the
/// labels of BFS ids 2k and 2k + 1 (the couple's stored side), so the
/// stores split their sets among the build's owners by blocks of
/// 2^(kOwnerBlockShift - 1) pair ranks. Also G_b's ordering.
struct CoupleLabels {
  LabelStore in;
  LabelStore out;
  VertexOrdering bipartite_order;

  /// The original vertex of pair rank k.
  Vertex VertexOf(size_t k) const {
    return OriginalOf(bipartite_order.rank_to_vertex[2 * k]);
  }

  /// Hands every set over, L_in then L_out: per direction, begin(store,
  /// is_in) first, then place(v, run) for each set, owner by owner, each
  /// owner's slab unmapped once its sets are placed. Records the bytes still
  /// mapped then (0) in `stats` and, with CSC_PARALLEL_DEBUG set, reports
  /// the stores on stderr (the `labels:` row).
  template <typename Begin, typename Place>
  void Release(Begin&& begin, Place&& place, LabelBuildStats& stats);

  /// The pair rank of original vertex v.
  size_t PairOf(Vertex v) const {
    return bipartite_order.vertex_to_rank[InVertex(v)] >> 1;
  }

  /// Release into exact-size LabelSets by original vertex.
  void ReleaseInto(std::vector<LabelSet>& in_sets,
                   std::vector<LabelSet>& out_sets, LabelBuildStats& stats);

 private:
  static bool Debug();
  static double Seconds();  // read only when Debug()
  void Report(bool debug, const double seconds[2],
              LabelBuildStats& stats) const;
};

/// Algorithm 3 over a copy of `graph` whose vertex ids are their ranks (G_b
/// is not built): L_in(v_i) and L_out(v_o) of every original vertex v,
/// reserved ones included, and the build stats (stats.store included).
CoupleLabels BuildCoupleLabels(const DiGraph& graph,
                               const VertexOrdering& order,
                               const CscIndex::Options& options,
                               bool distance_pruning, LabelBuildStats& stats);

/// Algorithm 3 over `graph` with `num_threads` >= 1 workers
/// (labeling/parallel_build.h), writing the same `in` and `out` sets and
/// `stats` as the sequential builder; the stores are made by the build,
/// split among its level-split owners.
void BuildCoupleLabelsInParallel(const RankedCsr& graph, unsigned num_threads,
                                 LabelStore& in, LabelStore& out,
                                 LabelBuildStats& stats);

template <typename Begin, typename Place>
void CoupleLabels::Release(Begin&& begin, Place&& place,
                           LabelBuildStats& stats) {
  const bool debug = Debug();
  double seconds[2] = {0, 0};
  for (int d = 0; d < 2; ++d) {
    LabelStore& store = d == 0 ? in : out;
    const double start = debug ? Seconds() : 0;
    begin(store, d == 0);
    for (unsigned t = 0; t < store.owners(); ++t) {
      store.ForEachOf(t, [&](size_t k) { place(VertexOf(k), store[k]); });
      store.Release(t);
    }
    if (debug) seconds[d] = Seconds() - start;
  }
  Report(debug, seconds, stats);
}

}  // namespace csc

#endif  // CSC_CSC_COUPLE_BUILDERS_H_
