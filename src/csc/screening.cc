#include "csc/screening.h"

#include <algorithm>

namespace csc {

namespace {

template <typename Index>
std::vector<CycleCount> SweepAll(const Index& index) {
  std::vector<CycleCount> answers(index.num_original_vertices());
  for (Vertex v = 0; v < answers.size(); ++v) answers[v] = index.Query(v);
  return answers;
}

}  // namespace

bool ScreeningHitBefore(const ScreeningHit& a, const ScreeningHit& b) {
  if (a.cycles.count != b.cycles.count) {
    return a.cycles.count > b.cycles.count;
  }
  if (a.cycles.length != b.cycles.length) {
    return a.cycles.length < b.cycles.length;
  }
  return a.vertex < b.vertex;
}

std::vector<ScreeningHit> TopKByCycleCount(
    const std::vector<CycleCount>& answers, Dist max_cycle_length,
    size_t top_k) {
  std::vector<ScreeningHit> hits;
  for (Vertex v = 0; v < answers.size(); ++v) {
    const CycleCount& cc = answers[v];
    if (cc.count == 0 || cc.length > max_cycle_length) continue;
    hits.push_back({v, cc});
  }
  std::sort(hits.begin(), hits.end(), ScreeningHitBefore);
  if (hits.size() > top_k) hits.resize(top_k);
  return hits;
}

std::vector<ScreeningHit> TopKByCycleCount(const CscIndex& index,
                                           Dist max_cycle_length,
                                           size_t top_k) {
  return TopKByCycleCount(SweepAll(index), max_cycle_length, top_k);
}

std::vector<ScreeningHit> TopKByCycleCount(const FrozenIndex& index,
                                           Dist max_cycle_length,
                                           size_t top_k) {
  return TopKByCycleCount(SweepAll(index), max_cycle_length, top_k);
}

std::vector<EdgeScreeningHit> TopKEdgesByCycleCount(const CscIndex& index,
                                                    Dist max_cycle_length,
                                                    size_t top_k) {
  std::vector<EdgeScreeningHit> hits;
  const DiGraph& graph = index.graph();
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    for (Vertex w : graph.OutNeighbors(v)) {
      CycleCount cc = index.QueryThroughEdge(v, w);
      if (cc.count == 0 || cc.length > max_cycle_length) continue;
      hits.push_back({{v, w}, cc});
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const EdgeScreeningHit& a, const EdgeScreeningHit& b) {
              if (a.cycles.count != b.cycles.count) {
                return a.cycles.count > b.cycles.count;
              }
              if (a.cycles.length != b.cycles.length) {
                return a.cycles.length < b.cycles.length;
              }
              if (a.edge.from != b.edge.from) {
                return a.edge.from < b.edge.from;
              }
              return a.edge.to < b.edge.to;
            });
  if (hits.size() > top_k) hits.resize(top_k);
  return hits;
}

}  // namespace csc
