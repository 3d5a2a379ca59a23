#include "graph/stats.h"

#include <algorithm>

#include "util/random.h"

namespace csc {

GraphStats ComputeGraphStats(const DiGraph& graph) {
  GraphStats stats;
  stats.num_vertices = graph.num_vertices();
  stats.num_edges = graph.num_edges();

  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    size_t out_degree = graph.OutDegree(v);
    size_t in_degree = graph.InDegree(v);
    size_t degree = out_degree + in_degree;
    stats.max_out_degree = std::max(stats.max_out_degree, out_degree);
    stats.max_in_degree = std::max(stats.max_in_degree, in_degree);
    stats.max_degree = std::max(stats.max_degree, degree);
    if (degree == 0) ++stats.isolated_vertices;

    // Log-binned degree histogram: bin = floor(log2(degree + 1)).
    size_t bin = 0;
    for (size_t d = degree + 1; d > 1; d >>= 1) ++bin;
    if (stats.degree_histogram.size() <= bin) {
      stats.degree_histogram.resize(bin + 1, 0);
    }
    ++stats.degree_histogram[bin];

    // Reciprocal edges: count (v, w) with w < adjacency check both ways.
    for (Vertex w : graph.OutNeighbors(v)) {
      if (graph.HasEdge(w, v)) ++stats.reciprocal_edges;
    }
  }
  if (stats.num_vertices > 0) {
    stats.mean_degree =
        2.0 * static_cast<double>(stats.num_edges) / stats.num_vertices;
  }
  if (stats.num_edges > 0) {
    stats.reciprocity = static_cast<double>(stats.reciprocal_edges) /
                        static_cast<double>(stats.num_edges);
  }
  return stats;
}

double EstimateAverageDistance(const DiGraph& graph, unsigned samples,
                               uint64_t seed) {
  if (graph.num_edges() == 0 || samples == 0) return 0;
  const Vertex n = graph.num_vertices();
  Rng rng(seed);
  uint64_t total_distance = 0;
  uint64_t total_pairs = 0;
  std::vector<Dist> dist;
  std::vector<Vertex> queue;
  for (unsigned i = 0; i < samples; ++i) {
    Vertex source = static_cast<Vertex>(rng.NextBounded(n));
    // Forward BFS from `source` over the out-adjacency lists.
    dist.assign(n, kInfDist);
    queue.assign(1, source);
    dist[source] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
      Vertex w = queue[head];
      for (Vertex next : graph.OutNeighbors(w)) {
        if (dist[next] == kInfDist) {
          dist[next] = dist[w] + 1;
          queue.push_back(next);
        }
      }
    }
    for (Vertex v = 0; v < n; ++v) {
      if (v == source || dist[v] == kInfDist) continue;
      total_distance += dist[v];
      ++total_pairs;
    }
  }
  return total_pairs == 0
             ? 0
             : static_cast<double>(total_distance) /
                   static_cast<double>(total_pairs);
}

}  // namespace csc
