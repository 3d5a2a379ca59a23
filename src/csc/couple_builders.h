#ifndef CSC_CSC_COUPLE_BUILDERS_H_
#define CSC_CSC_COUPLE_BUILDERS_H_

// Construction internals shared by the sequential CSC builder
// (csc_index.cc) and the parallel one (parallel_couple_builder.cc), which
// live in separate translation units so that the parallel builder's code
// does not change how the compiler builds the sequential one: with both in
// one unit, the sequential build of WKT@0.5 measured 7% slower than alone
// (0.775 against 0.724 s; medians of 20 alternating runs, 4 vCPU, GCC 12.2
// -O3).

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "graph/ordering.h"
#include "labeling/hub_labeling.h"
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

/// The two label sets construction writes, by pair rank k: in[k] is
/// L_in(v_i) and out[k] is L_out(v_o) of the vertex ranked k.
struct PairLabels {
  explicit PairLabels(Vertex num_pairs) : in(num_pairs), out(num_pairs) {}

  /// L_in of in-vertex rank x and L_out of out-vertex rank x.
  LabelSet& In(Rank x) { return in[x >> 1]; }
  LabelSet& Out(Rank x) { return out[x >> 1]; }
  const LabelSet& In(Rank x) const { return in[x >> 1]; }
  const LabelSet& Out(Rank x) const { return out[x >> 1]; }

  std::vector<LabelSet> in;
  std::vector<LabelSet> out;
};

/// Algorithm 3 over `graph` with `num_threads` >= 1 workers
/// (labeling/parallel_build.h), writing the same `labels` and `stats` as
/// the sequential builder.
void BuildCoupleLabelsInParallel(const RankedCsr& graph, PairLabels& labels,
                                 unsigned num_threads, LabelBuildStats& stats);

}  // namespace csc

#endif  // CSC_CSC_COUPLE_BUILDERS_H_
