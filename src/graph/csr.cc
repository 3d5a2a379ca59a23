#include "graph/csr.h"

#include <algorithm>

namespace csc {

CsrGraph CsrGraph::FromGraph(const DiGraph& graph) {
  const Vertex n = graph.num_vertices();
  CsrGraph csr;
  csr.out_offsets_.assign(n + 1, 0);
  csr.in_offsets_.assign(n + 1, 0);
  csr.out_targets_.reserve(graph.num_edges());
  csr.in_targets_.reserve(graph.num_edges());
  for (Vertex v = 0; v < n; ++v) {
    const std::vector<Vertex>& out = graph.OutNeighbors(v);
    csr.out_targets_.insert(csr.out_targets_.end(), out.begin(), out.end());
    csr.out_offsets_[v + 1] = csr.out_targets_.size();
    const std::vector<Vertex>& in = graph.InNeighbors(v);
    csr.in_targets_.insert(csr.in_targets_.end(), in.begin(), in.end());
    csr.in_offsets_[v + 1] = csr.in_targets_.size();
  }
  return csr;
}

uint64_t CsrGraph::SizeBytes() const {
  return out_offsets_.size() * sizeof(uint64_t) +
         in_offsets_.size() * sizeof(uint64_t) +
         out_targets_.size() * sizeof(Vertex) +
         in_targets_.size() * sizeof(Vertex);
}

std::vector<Dist> CsrBfsDistances(const CsrGraph& graph, Vertex source,
                                  bool forward) {
  std::vector<Dist> dist(graph.num_vertices(), kInfDist);
  std::vector<Vertex> queue;
  dist[source] = 0;
  queue.push_back(source);
  size_t head = 0;
  while (head < queue.size()) {
    Vertex w = queue[head++];
    std::span<const Vertex> next =
        forward ? graph.OutNeighbors(w) : graph.InNeighbors(w);
    for (Vertex wn : next) {
      if (dist[wn] == kInfDist) {
        dist[wn] = dist[w] + 1;
        queue.push_back(wn);
      }
    }
  }
  return dist;
}

}  // namespace csc
