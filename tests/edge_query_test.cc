#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "csc/frozen_index.h"
#include "csc/screening.h"
#include "dynamic/decremental.h"
#include "dynamic/incremental.h"
#include "graph/ordering.h"
#include "tests/test_util.h"
#include "workload/update_workload.h"

namespace csc {
namespace {

// Counting-BFS oracle for pairwise shortest paths: distance and number of
// shortest paths from s to every vertex.
struct PairOracle {
  std::vector<Dist> dist;
  std::vector<Count> count;
};

PairOracle CountingBfs(const DiGraph& graph, Vertex s) {
  PairOracle oracle;
  oracle.dist.assign(graph.num_vertices(), kInfDist);
  oracle.count.assign(graph.num_vertices(), 0);
  std::vector<Vertex> queue = {s};
  oracle.dist[s] = 0;
  oracle.count[s] = 1;
  for (size_t head = 0; head < queue.size(); ++head) {
    Vertex w = queue[head];
    for (Vertex wn : graph.OutNeighbors(w)) {
      if (oracle.dist[wn] == kInfDist) {
        oracle.dist[wn] = oracle.dist[w] + 1;
        queue.push_back(wn);
      }
      if (oracle.dist[wn] == oracle.dist[w] + 1) {
        oracle.count[wn] += oracle.count[w];
      }
    }
  }
  return oracle;
}

// The oracle answer for cycles through edge (u, v): shortest v -> u path
// plus the edge.
CycleCount OracleThroughEdge(const DiGraph& graph, Vertex u, Vertex v) {
  PairOracle oracle = CountingBfs(graph, v);
  if (oracle.dist[u] == kInfDist) return {};
  return {oracle.dist[u] + 1, oracle.count[u]};
}

TEST(EdgeQueryTest, TriangleEdge) {
  DiGraph triangle(3);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(2, 0);
  CscIndex index = CscIndex::Build(triangle, DegreeOrdering(triangle));
  for (Vertex u = 0; u < 3; ++u) {
    Vertex v = (u + 1) % 3;
    EXPECT_EQ(index.QueryThroughEdge(u, v), (CycleCount{3, 1}))
        << u << "->" << v;
  }
}

TEST(EdgeQueryTest, InvalidArgumentsReturnEmpty) {
  DiGraph graph = Figure2Graph();
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  EXPECT_EQ(index.QueryThroughEdge(3, 3), (CycleCount{}));
  EXPECT_EQ(index.QueryThroughEdge(0, 9999), (CycleCount{}));
  EXPECT_EQ(index.QueryThroughEdge(9999, 0), (CycleCount{}));
}

TEST(EdgeQueryTest, AbsentEdgePredictsInsertionEffect) {
  // 0 -> 1 -> 2, no edge 2 -> 0 yet: querying the hypothetical edge (2, 0)
  // must report the 3-cycle its insertion would create.
  DiGraph path(3);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  CscIndex index = CscIndex::Build(path, DegreeOrdering(path));
  EXPECT_EQ(index.QueryThroughEdge(2, 0), (CycleCount{3, 1}));
  // And no path back means no would-be cycle.
  EXPECT_EQ(index.QueryThroughEdge(0, 2), (CycleCount{}));
}

TEST(EdgeQueryTest, MatchesOracleOnAllEdgesOfRandomGraphs) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    DiGraph graph = RandomGraph(50, 2.5, seed + 300);
    CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
    for (const Edge& e : graph.Edges()) {
      EXPECT_EQ(index.QueryThroughEdge(e.from, e.to),
                OracleThroughEdge(graph, e.from, e.to))
          << "seed " << seed << " edge " << e.from << "->" << e.to;
    }
  }
}

TEST(EdgeQueryTest, AllIndexFormsAgree) {
  DiGraph graph = RandomGraph(60, 3.0, 17);
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  CompactIndex compact = CompactIndex::FromIndex(index);
  FrozenIndex frozen = FrozenIndex::FromCompact(compact);
  FrozenIndex compressed =
      FrozenIndex::FromCompact(compact, ArenaEncoding::kVarint);
  for (const Edge& e : graph.Edges()) {
    CycleCount expected = index.QueryThroughEdge(e.from, e.to);
    EXPECT_EQ(frozen.QueryThroughEdge(e.from, e.to), expected);
    EXPECT_EQ(compressed.QueryThroughEdge(e.from, e.to), expected);
  }
  // Hypothetical (absent) edges must agree too, including both argument
  // orders and unreachable pairs.
  for (Vertex u = 0; u < 20; ++u) {
    for (Vertex v = 0; v < 20; ++v) {
      CycleCount expected = index.QueryThroughEdge(u, v);
      EXPECT_EQ(compressed.QueryThroughEdge(u, v), expected)
          << u << "->" << v;
      EXPECT_EQ(frozen.QueryThroughEdge(u, v), expected) << u << "->" << v;
    }
  }
}

TEST(EdgeQueryTest, EdgeCycleNeverShorterThanVertexCycles) {
  // A cycle through edge (u, v) passes through both endpoints, so it cannot
  // be shorter than either endpoint's shortest cycle.
  DiGraph graph = RandomGraph(60, 2.5, 23);
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  for (const Edge& e : graph.Edges()) {
    CycleCount through = index.QueryThroughEdge(e.from, e.to);
    if (through.count == 0) continue;
    EXPECT_GE(through.length, index.Query(e.from).length);
    EXPECT_GE(through.length, index.Query(e.to).length);
  }
}

TEST(EdgeScreeningTest, RanksPlantedHotEdge) {
  // A hub edge (0, 1) closed by two return routes has 2 shortest cycles;
  // every other edge lies on at most one.
  DiGraph graph(5);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 0);
  graph.AddEdge(1, 3);
  graph.AddEdge(3, 0);
  graph.AddEdge(4, 0);  // not on any cycle
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  std::vector<EdgeScreeningHit> hits =
      TopKEdgesByCycleCount(index, kInfDist, 3);
  ASSERT_GE(hits.size(), 1u);
  EXPECT_EQ(hits[0].edge, (Edge{0, 1}));
  EXPECT_EQ(hits[0].cycles, (CycleCount{3, 2}));
  // The acyclic edge (4, 0) never appears.
  for (const EdgeScreeningHit& hit : hits) {
    EXPECT_NE(hit.edge, (Edge{4, 0}));
  }
}

TEST(EdgeQueryTest, SurvivesSerializationRoundTrip) {
  // The couple-hub correction needs v_i's rank: the frozen form derives it
  // from a reloaded compact payload's rank permutation and then carries it
  // in its own payload. Both round trips must answer edge queries
  // identically.
  DiGraph graph = RandomGraph(50, 2.5, 67);
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  CompactIndex compact = CompactIndex::FromIndex(index);
  std::optional<CompactIndex> reloaded =
      CompactIndex::Deserialize(compact.Serialize());
  ASSERT_TRUE(reloaded.has_value());
  FrozenIndex frozen = FrozenIndex::FromCompact(*reloaded);
  std::optional<FrozenIndex> refrozen =
      FrozenIndex::Deserialize(frozen.Serialize());
  ASSERT_TRUE(refrozen.has_value());
  for (const Edge& e : graph.Edges()) {
    CycleCount expected = index.QueryThroughEdge(e.from, e.to);
    EXPECT_EQ(frozen.QueryThroughEdge(e.from, e.to), expected);
    EXPECT_EQ(refrozen->QueryThroughEdge(e.from, e.to), expected);
  }
}

TEST(EdgeQueryTest, StaysExactUnderDynamicMaintenance) {
  DiGraph graph = RandomGraph(40, 2.5, 41);
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));

  // Remove a few edges then insert fresh ones (minimality keeps removals
  // sound); after every step the edge query must match the oracle on every
  // current edge.
  auto verify = [&]() {
    for (const Edge& e : graph.Edges()) {
      ASSERT_EQ(index.QueryThroughEdge(e.from, e.to),
                OracleThroughEdge(graph, e.from, e.to))
          << "edge " << e.from << "->" << e.to;
    }
  };
  verify();
  std::vector<Edge> edges = graph.Edges();
  for (size_t i = 0; i < 5 && i < edges.size(); ++i) {
    ASSERT_TRUE(RemoveEdge(index, edges[i].from, edges[i].to));
    graph.RemoveEdge(edges[i].from, edges[i].to);
    verify();
  }
  for (size_t i = 0; i < 5 && i < edges.size(); ++i) {
    ASSERT_TRUE(InsertEdge(index, edges[i].from, edges[i].to,
                           MaintenanceStrategy::kMinimality));
    graph.AddEdge(edges[i].from, edges[i].to);
    verify();
  }
}

TEST(EdgeScreeningTest, LengthFilterAndKAreHonored) {
  DiGraph graph = RandomGraph(50, 3.0, 31);
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  std::vector<EdgeScreeningHit> hits = TopKEdgesByCycleCount(index, 3, 5);
  EXPECT_LE(hits.size(), 5u);
  for (const EdgeScreeningHit& hit : hits) {
    EXPECT_LE(hit.cycles.length, 3u);
    EXPECT_GT(hit.cycles.count, 0u);
    EXPECT_TRUE(graph.HasEdge(hit.edge.from, hit.edge.to));
  }
  // Descending by count.
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].cycles.count, hits[i].cycles.count);
  }
}

TEST(EdgeScreeningTest, MaintainedIndexMatchesFreshBuild) {
  // Screening enumerates the maintained index's own edges: after removals
  // and insertions (reserved vertices attached included), it lists what a
  // fresh build of the mutated graph lists.
  const Vertex n = 60;
  DiGraph graph = RandomGraph(n, 3.0, 53);
  CscIndex::Options options;
  options.reserve_vertices = 1;
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph), options);
  DiGraph target = graph;
  target.AddVertices(1);
  auto expect_fresh_hits = [&]() {
    CscIndex fresh = CscIndex::Build(target, DegreeOrdering(target));
    std::vector<EdgeScreeningHit> hits =
        TopKEdgesByCycleCount(index, kInfDist, target.num_edges());
    EXPECT_EQ(hits,
              TopKEdgesByCycleCount(fresh, kInfDist, target.num_edges()));
    EXPECT_EQ(TopKEdgesByCycleCount(index, 4, 10),
              TopKEdgesByCycleCount(fresh, 4, 10));
    // The hits are exactly the mutated graph's edges that lie on a cycle.
    size_t on_cycle = 0;
    for (const Edge& e : target.Edges()) {
      if (fresh.QueryThroughEdge(e.from, e.to).count > 0) ++on_cycle;
    }
    EXPECT_EQ(hits.size(), on_cycle);
    for (const EdgeScreeningHit& hit : hits) {
      EXPECT_TRUE(target.HasEdge(hit.edge.from, hit.edge.to));
    }
  };
  expect_fresh_hits();
  for (const Edge& e : SampleExistingEdges(target, 6, 54)) {
    ASSERT_TRUE(RemoveEdge(index, e.from, e.to));
    target.RemoveEdge(e.from, e.to);
    expect_fresh_hits();
  }
  std::vector<Edge> inserts = SampleNewEdges(target, 6, 55);
  inserts.push_back({0, n});
  inserts.push_back({n, 1});
  for (const Edge& e : inserts) {
    ASSERT_TRUE(InsertEdge(index, e.from, e.to));
    target.AddEdge(e.from, e.to);
    expect_fresh_hits();
  }
}

}  // namespace
}  // namespace csc
