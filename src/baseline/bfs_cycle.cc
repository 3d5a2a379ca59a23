#include "baseline/bfs_cycle.h"

#include <algorithm>

namespace csc {

CycleCount BfsScratch::CountCycles(const DiGraph& graph, Vertex vq) {
  // Reset only what the previous query touched; the arrays only ever grow,
  // so those indices stay in range whatever graph that query ran on.
  for (Vertex v : touched_) {
    dist_[v] = kInfDist;
    count_[v] = 0;
  }
  touched_.clear();
  queue_.clear();
  Reserve(graph.num_vertices());

  // Algorithm 1 lines 4-6: seed the BFS with vq's out-neighbors at
  // distance 1. vq itself stays at infinity until a cycle closes back.
  for (Vertex u : graph.OutNeighbors(vq)) {
    dist_[u] = 1;
    count_[u] = 1;
    touched_.push_back(u);
    queue_.push_back(u);
  }
  size_t head = 0;
  while (head < queue_.size()) {
    Vertex w = queue_[head++];
    if (w == vq) {
      // All same-distance predecessors were dequeued (and accumulated into
      // C[vq]) before vq itself, so the counts are final here.
      return {dist_[vq], count_[vq]};
    }
    for (Vertex wn : graph.OutNeighbors(w)) {
      if (dist_[wn] > dist_[w] + 1) {
        if (dist_[wn] == kInfDist) touched_.push_back(wn);
        dist_[wn] = dist_[w] + 1;
        count_[wn] = count_[w];
        queue_.push_back(wn);
      } else if (dist_[wn] == dist_[w] + 1) {
        count_[wn] += count_[w];
      }
    }
  }
  return {kInfDist, 0};
}

void BfsScratch::Reserve(Vertex num_vertices) {
  if (dist_.size() < num_vertices) {
    dist_.resize(num_vertices, kInfDist);
    count_.resize(num_vertices, 0);
  }
}

CycleCount BfsCountCycles(const DiGraph& graph, Vertex vq) {
  thread_local BfsScratch scratch;
  return scratch.CountCycles(graph, vq);
}

namespace {

// Depth-first enumeration of simple paths from `v` back to `vq`, bounded by
// `limit` edges. Appends the length of each found cycle to `lengths`.
void DfsEnumerate(const DiGraph& graph, Vertex vq, Vertex v, Dist depth,
                  Dist limit, std::vector<bool>& on_path,
                  std::vector<Dist>& lengths) {
  for (Vertex w : graph.OutNeighbors(v)) {
    if (w == vq) {
      lengths.push_back(depth + 1);
      continue;
    }
    if (depth + 1 >= limit || on_path[w]) continue;
    on_path[w] = true;
    DfsEnumerate(graph, vq, w, depth + 1, limit, on_path, lengths);
    on_path[w] = false;
  }
}

}  // namespace

CycleCount NaiveCountCyclesDfs(const DiGraph& graph, Vertex vq) {
  // Shortest cycles are simple, so enumerating simple cycles of all lengths
  // up to n and keeping the minimum is an exact (if exponential) oracle.
  std::vector<bool> on_path(graph.num_vertices(), false);
  std::vector<Dist> lengths;
  on_path[vq] = true;
  DfsEnumerate(graph, vq, vq, 0, graph.num_vertices(), on_path, lengths);
  CycleCount result;
  for (Dist len : lengths) {
    if (len < result.length) {
      result.length = len;
      result.count = 1;
    } else if (len == result.length) {
      ++result.count;
    }
  }
  return result;
}

}  // namespace csc
