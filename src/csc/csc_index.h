#ifndef CSC_CSC_CSC_INDEX_H_
#define CSC_CSC_CSC_INDEX_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite.h"
#include "graph/digraph.h"
#include "graph/ordering.h"
#include "labeling/hub_labeling.h"

namespace csc {

/// The paper's core contribution (§IV): the CSC index, a 2-hop labeling over
/// the bipartite conversion G_b of the input graph that answers shortest
/// cycle counting queries SCCnt(v) as the shortest-path-counting query
/// SPCnt(v_o, v_i) in G_b.
///
/// Construction is Algorithm 3 with couple-vertex skipping: only incoming
/// vertices v_i ever act as BFS roots; a reached vertex and its couple are
/// labeled together, and the BFS hops couple-to-couple so only one side of
/// the bipartition is ever enqueued. The BFSs walk a flat copy of the input
/// graph whose vertex ids are their ranks, with G_b's vertices named by
/// their bipartite ranks (2k for v_i, 2k + 1 for v_o, where v has rank k),
/// and the labels return to vertex order at the end.
///
/// Of each couple pair's four label sets the index stores only the two the
/// §IV.E reduction keeps, by original vertex v: in[v] = L_in(v_i) and
/// out[v] = L_out(v_o) (the CompactIndex layout, and the two sets SCCnt
/// queries read). The other two are the same entries one step further:
///   L_in(v_o)  = shift(L_in(v_i)) ∪ {(v_o, 0, 1)}
///   L_out(v_i) = shift(L_out(v_o) \ {hub v_i, hub v_o}) ∪ {(v_i, 0, 1)}
/// Construction and §V maintenance write only the stored sets, and every
/// read of a derived set (BipartiteQuery, DECCNT, INCCNT's affected hubs,
/// cleaning) goes through this identity. The build stats still count every
/// entry of the full labeling; CompactIndex::ExpandToFull materializes it.
///
/// The index owns a copy of the input graph, reserved vertices included
/// (dynamic maintenance mutates it), and the bipartite ordering. G_b itself
/// is never built: construction and the §V maintenance passes walk it
/// implicitly, hopping couple to couple over the input graph's adjacency.
class CscIndex {
 public:
  struct Options {
    /// Ignored: minimality cleaning (dynamic/clean.h) keeps no inverted hub
    /// index. Kept only because perfbench/serving_bench.cc still sets it.
    bool maintain_inverted_index = false;
    /// Extra isolated vertices appended to the graph before indexing (with
    /// the lowest ranks). A vertex insertion is "a series of edge
    /// insertions" (§V) — reserving slots up front lets applications attach
    /// brand-new vertices to a live index via InsertEdge alone.
    Vertex reserve_vertices = 0;
    /// Construction workers. 0 keeps the sequential per-hub Algorithm 3
    /// builder (the oracle path); >= 1 runs the rank-batched parallel
    /// builder (labeling/parallel_build.h): hubs stage pruned BFSs
    /// concurrently per rank batch and a deterministic commit step makes
    /// the labeling — and the build stats — bit-identical to the
    /// sequential builder at any thread count.
    unsigned build_threads = 0;
  };

  /// Builds the index for `graph` under `order` (an ordering of the
  /// *original* vertices; it is lifted to G_b internally).
  static CscIndex Build(const DiGraph& graph, const VertexOrdering& order,
                        const Options& options);
  static CscIndex Build(const DiGraph& graph, const VertexOrdering& order) {
    return Build(graph, order, Options());
  }

  /// SCCnt(v): number and length of shortest cycles through v in the
  /// original graph. length == kInfDist means no cycle passes through v.
  CycleCount Query(Vertex v) const;

  /// Shortest cycles through the *edge* (u, v): cycles formed by the edge
  /// plus a shortest path v -> u (every cycle using the edge decomposes this
  /// way, and no shortest v -> u path can itself contain the edge). The
  /// returned length includes the edge. Works whether or not (u, v) is
  /// currently present — for an absent edge it reports the shortest cycles
  /// the insertion *would* create, the natural pre-screening query for a
  /// proposed transaction. Returns {} for u == v or out-of-range ids.
  CycleCount QueryThroughEdge(Vertex u, Vertex v) const;

  /// Raw 2-hop query in G_b (s, t are bipartite vertex ids): the join of
  /// L_out(s) with L_in(t), derived sets read through the §IV.E identity.
  /// Used by the maintenance algorithms and exposed for diagnostics.
  JoinResult BipartiteQuery(Vertex s, Vertex t) const;

  /// Number of vertices in the original graph, reserved ones included.
  Vertex num_original_vertices() const { return graph_.num_vertices(); }

  /// The indexed graph: the input graph plus its reserved vertices, with
  /// every edge update maintenance has applied since. Its adjacency lists
  /// start sorted, whatever the input's order was.
  const DiGraph& graph() const { return graph_; }
  const VertexOrdering& bipartite_order() const { return order_; }
  /// The two stored label sets, by original vertex v: in[v] = L_in(v_i) and
  /// out[v] = L_out(v_o). Hubs are bipartite ranks.
  const HubLabeling& served_labels() const { return labels_; }
  /// Its `seconds` time the whole Build: graph copy and labels.
  const LabelBuildStats& build_stats() const { return stats_; }
  /// The options that rebuild this index from graph(): reserve_vertices
  /// reads 0, the reserved vertices being part of graph().
  const Options& options() const { return options_; }
  uint64_t TotalEntries() const { return labels_.TotalEntries(); }
  uint64_t SizeBytes() const { return labels_.SizeBytes(); }

  // --- Mutable access for the dynamic-maintenance module (src/dynamic). ---
  DiGraph& mutable_graph() { return graph_; }
  HubLabeling& mutable_served_labels() { return labels_; }

 private:
  friend CscIndex BuildCscAblation(const DiGraph& graph,
                                   const VertexOrdering& order,
                                   const struct CscAblationConfig& config);

  CscIndex() = default;

  DiGraph graph_;         // the input graph plus reserved vertices
  VertexOrdering order_;  // over G_b's 2n vertices
  HubLabeling labels_;    // the two stored sets, by original vertex
  LabelBuildStats stats_;
  Options options_;
};

/// Build-time ablation knobs (bench/bench_ablation exercises these; the
/// default Build() uses all optimizations). Kept separate from Options so the
/// public API stays clean. (Without couple skipping there is no CSC index:
/// that ablation is BuildPlainHubLabeling over BipartiteConversion(graph).)
struct CscAblationConfig {
  /// Disable the distance-pruning query (line 13); BFSs then only stop on
  /// rank pruning. Labels stay correct but become non-minimal and slow.
  bool disable_distance_pruning = false;
};

/// Builds a CSC index with some optimizations disabled, for the ablation
/// study. Query results are identical to the standard build.
CscIndex BuildCscAblation(const DiGraph& graph, const VertexOrdering& order,
                          const CscAblationConfig& config);

}  // namespace csc

#endif  // CSC_CSC_CSC_INDEX_H_
