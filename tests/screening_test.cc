// Tests for the screening helper and the reserve_vertices build option.
#include "csc/screening.h"

#include <gtest/gtest.h>

#include <set>

#include "baseline/bfs_cycle.h"
#include "dynamic/incremental.h"
#include "graph/generators.h"
#include "graph/ordering.h"
#include "tests/test_util.h"

namespace csc {
namespace {

TEST(ScreeningTest, RecoversPlantedRingCenters) {
  MoneyLaunderingConfig cfg;
  cfg.num_background = 800;
  cfg.num_rings = 4;
  cfg.routes_per_ring = 6;
  cfg.route_length = 3;
  MoneyLaunderingGraph ml = GenerateMoneyLaundering(cfg, 99);
  CscIndex index = CscIndex::Build(ml.graph, DegreeOrdering(ml.graph));
  auto hits = TopKByCycleCount(index, cfg.route_length + 1, cfg.num_rings);
  ASSERT_EQ(hits.size(), cfg.num_rings);
  std::set<Vertex> planted(ml.criminal_accounts.begin(),
                           ml.criminal_accounts.end());
  for (const ScreeningHit& hit : hits) {
    EXPECT_TRUE(planted.count(hit.vertex)) << "vertex " << hit.vertex;
    EXPECT_EQ(hit.cycles.count, cfg.routes_per_ring);
  }
}

TEST(ScreeningTest, OrderingIsCountThenLengthThenId) {
  // 0<->1 (one 2-cycle each); 2/3/4 on two 3-cycles each.
  DiGraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  g.AddEdge(4, 2);
  g.AddEdge(2, 4);
  g.AddEdge(4, 3);
  g.AddEdge(3, 2);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  auto hits = TopKByCycleCount(index, kInfDist, 10);
  ASSERT_EQ(hits.size(), 5u);
  // Vertices 2,3,4 have (2-cycles!) via reciprocal pairs: 2<->3? no...
  // 2->3,3->2 yes: so 2,3 and 3,4? Let BFS decide and just assert the sort
  // invariant instead of hand-computed values.
  for (size_t i = 1; i < hits.size(); ++i) {
    const auto& prev = hits[i - 1].cycles;
    const auto& cur = hits[i].cycles;
    bool ordered = prev.count > cur.count ||
                   (prev.count == cur.count && prev.length < cur.length) ||
                   (prev.count == cur.count && prev.length == cur.length &&
                    hits[i - 1].vertex < hits[i].vertex);
    EXPECT_TRUE(ordered) << "position " << i;
  }
  for (const ScreeningHit& hit : hits) {
    EXPECT_EQ(hit.cycles, BfsCountCycles(g, hit.vertex));
  }
}

TEST(ScreeningTest, LengthFilterAndTopKRespected) {
  DiGraph g = RandomGraph(60, 3.0, 5);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  auto hits = TopKByCycleCount(index, 3, 5);
  EXPECT_LE(hits.size(), 5u);
  for (const ScreeningHit& hit : hits) {
    EXPECT_LE(hit.cycles.length, 3u);
    EXPECT_GT(hit.cycles.count, 0u);
  }
}

TEST(ReserveVerticesTest, NewVerticesAttachViaInsertEdge) {
  DiGraph g = Figure2Graph();
  CscIndex::Options options;
  options.reserve_vertices = 3;
  CscIndex index = CscIndex::Build(g, Figure2Ordering(), options);
  EXPECT_EQ(index.num_original_vertices(), 13u);
  // Reserved slots start isolated.
  EXPECT_EQ(index.Query(10), (CycleCount{kInfDist, 0}));

  // Wire reserved vertex 10 into a triangle with 11 and the existing v1.
  ASSERT_TRUE(InsertEdge(index, 0, 10));
  ASSERT_TRUE(InsertEdge(index, 10, 11));
  ASSERT_TRUE(InsertEdge(index, 11, 0));
  EXPECT_EQ(index.Query(10), (CycleCount{3, 1}));
  EXPECT_EQ(index.Query(11), (CycleCount{3, 1}));

  // Ground truth on the equivalent static graph.
  DiGraph g2 = Figure2Graph();
  g2.AddVertices(3);
  g2.AddEdge(0, 10);
  g2.AddEdge(10, 11);
  g2.AddEdge(11, 0);
  for (Vertex v = 0; v < g2.num_vertices(); ++v) {
    EXPECT_EQ(index.Query(v), BfsCountCycles(g2, v)) << "vertex " << v;
  }
}

TEST(ReserveVerticesTest, ReservedBuildMatchesExtendedStaticBuild) {
  DiGraph g = RandomGraph(30, 2.0, 11);
  CscIndex::Options options;
  options.reserve_vertices = 5;
  CscIndex reserved = CscIndex::Build(g, DegreeOrdering(g), options);
  // Building on the explicitly extended graph must produce the same labels.
  DiGraph extended = g;
  extended.AddVertices(5);
  VertexOrdering order = DegreeOrdering(g);
  for (Vertex v = 30; v < 35; ++v) {
    order.rank_to_vertex.push_back(v);
    order.vertex_to_rank.push_back(v);
  }
  CscIndex direct = CscIndex::Build(extended, order);
  EXPECT_EQ(reserved.served_labels(), direct.served_labels());
}

}  // namespace
}  // namespace csc
