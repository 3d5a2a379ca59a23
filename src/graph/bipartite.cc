#include "graph/bipartite.h"

namespace csc {

DiGraph BipartiteConversion(const DiGraph& graph) {
  std::vector<Edge> edges;
  edges.reserve(graph.num_vertices() + graph.num_edges());
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    edges.push_back({InVertex(v), OutVertex(v)});
    for (Vertex w : graph.OutNeighbors(v)) {
      edges.push_back({OutVertex(v), InVertex(w)});
    }
  }
  return DiGraph::FromEdges(2 * graph.num_vertices(), edges);
}

VertexOrdering BipartiteOrdering(const VertexOrdering& original) {
  VertexOrdering order;
  order.rank_to_vertex.resize(2 * original.size());
  order.vertex_to_rank.resize(2 * original.size());
  for (Rank r = 0; r < original.size(); ++r) {
    Vertex v = original.rank_to_vertex[r];
    order.rank_to_vertex[2 * r] = InVertex(v);
    order.rank_to_vertex[2 * r + 1] = OutVertex(v);
    order.vertex_to_rank[InVertex(v)] = 2 * r;
    order.vertex_to_rank[OutVertex(v)] = 2 * r + 1;
  }
  return order;
}

}  // namespace csc
