#ifndef CSC_TESTS_TEST_UTIL_H_
#define CSC_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "graph/ordering.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace csc {

/// The worked example of the paper: the directed graph of Figure 2
/// (10 vertices; v1..v10 map to ids 0..9). Its hub labeling under degree
/// ordering is printed in Table II, the CSC labels of v7 in Table III, and
/// SCCnt(v7) = 3 with length 6 (Examples 1, 3, 6).
inline DiGraph Figure2Graph() {
  // v1->v3, v1->v4, v1->v5, v3->v6, v4->v7, v5->v7, v6->v7, v7->v8,
  // v8->v9, v9->v10, v10->v1, v10->v2, v2->v4.
  std::vector<Edge> edges = {{0, 2}, {0, 3}, {0, 4}, {2, 5}, {3, 6},
                             {4, 6}, {5, 6}, {6, 7}, {7, 8}, {8, 9},
                             {9, 0}, {9, 1}, {1, 3}};
  return DiGraph::FromEdges(10, edges);
}

/// Example 4's ordering: v1 ≺ v7 ≺ v4 ≺ v10 ≺ v2 ≺ v3 ≺ v5 ≺ v6 ≺ v8 ≺ v9.
/// (DegreeOrdering(Figure2Graph()) reproduces it; tests assert that too.)
inline VertexOrdering Figure2Ordering() {
  return OrderingFromPermutation({0, 6, 3, 9, 1, 2, 4, 5, 7, 8});
}

/// The full four-set labeling of `index` over G_b: its two stored sets plus
/// the couple copies the §IV.E identity derives (CompactIndex::ExpandToFull).
inline HubLabeling ExpandedLabeling(const CscIndex& index) {
  return CompactIndex::FromIndex(index).ExpandToFull();
}

/// A small random directed graph for property tests: n vertices, ~density*n
/// edges, deterministic in `seed`.
inline DiGraph RandomGraph(Vertex n, double density, uint64_t seed) {
  auto m = static_cast<uint64_t>(density * n);
  return GenerateErdosRenyi(n, m, seed);
}

/// Arms failpoint `site` to fire `mode` on its next evaluation, once.
/// Failpoints are process-global: a test that arms one declares a
/// ClearFailpointsOnExit first, so an early ASSERT return cannot leak an
/// armed site into a later test.
inline void ArmFailpoint(const std::string& site,
                         FailpointMode mode = FailpointMode::kError) {
  FailpointAction action;
  action.mode = mode;
  Failpoints::Instance().Set(site, action);
}

struct ClearFailpointsOnExit {
  ~ClearFailpointsOnExit() { Failpoints::Instance().ClearAll(); }
};

}  // namespace csc

#endif  // CSC_TESTS_TEST_UTIL_H_
