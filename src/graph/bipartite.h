#ifndef CSC_GRAPH_BIPARTITE_H_
#define CSC_GRAPH_BIPARTITE_H_

#include <vector>

#include "graph/digraph.h"
#include "graph/ordering.h"

namespace csc {

/// Bipartite conversion (Algorithm 2, BI-G). Every original vertex `v`
/// becomes a couple pair: the incoming vertex `v_i` (carrying v's in-edges)
/// and the outgoing vertex `v_o` (carrying v's out-edges), joined by the
/// couple edge `(v_i, v_o)`. Original edge `(v, w)` becomes `(v_o, w_i)`.
///
/// The CSC index never stores G_b: its builders and §V maintenance walk it
/// over the input graph. v_i's only out-neighbour is v_o; v_o's are the w_i
/// of v's out-neighbours w, and v_i's in-neighbours the u_o of v's
/// in-neighbours u. Only the ablation bench and the tests build G_b.
///
/// Encoding: `v_i = 2v`, `v_o = 2v + 1`, so a couple is `x ^ 1` and the
/// original vertex is `x >> 1`. Couple pairs are id-consecutive, which also
/// makes them rank-consecutive under BipartiteOrdering — the property the
/// couple-vertex skipping optimization relies on (§IV.B).
inline Vertex InVertex(Vertex v) { return 2 * v; }
inline Vertex OutVertex(Vertex v) { return 2 * v + 1; }
inline Vertex CoupleOf(Vertex x) { return x ^ 1; }
inline Vertex OriginalOf(Vertex x) { return x >> 1; }
inline bool IsInVertex(Vertex x) { return (x & 1) == 0; }
inline bool IsOutVertex(Vertex x) { return (x & 1) == 1; }

/// Builds G_b from G (Algorithm 2): 2n vertices, n + m edges.
DiGraph BipartiteConversion(const DiGraph& graph);

/// Lifts an ordering of G to G_b: if v has rank r in G, then v_i gets rank
/// 2r and v_o gets rank 2r + 1 ("the consecutive order of each pair of
/// couple vertices", §IV.B). v_i ranks directly above v_o.
VertexOrdering BipartiteOrdering(const VertexOrdering& original);

}  // namespace csc

#endif  // CSC_GRAPH_BIPARTITE_H_
