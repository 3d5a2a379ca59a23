// Randomized mixed insert/delete sequences: after every update the
// maintained index must agree with BFS ground truth on every vertex, and
// (in minimality mode) with a from-scratch rebuild entry-for-entry.
#include <gtest/gtest.h>

#include <tuple>

#include "baseline/bfs_cycle.h"
#include "dynamic/decremental.h"
#include "dynamic/incremental.h"
#include "graph/generators.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace csc {
namespace {

using Param = std::tuple<uint64_t, bool>;  // seed, minimality

class MixedUpdateTest : public ::testing::TestWithParam<Param> {};

TEST_P(MixedUpdateTest, RandomUpdateSequenceStaysExact) {
  auto [seed, minimality] = GetParam();
  MaintenanceStrategy strategy = minimality
                                     ? MaintenanceStrategy::kMinimality
                                     : MaintenanceStrategy::kRedundancy;
  DiGraph g = RandomGraph(30, 2.0, seed);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex index = CscIndex::Build(g, order);
  Rng rng(seed * 977 + 5);
  bool inserted_any = false;
  for (int step = 0; step < 30; ++step) {
    bool do_insert = rng.NextBool(0.5);
    // Decremental maintenance assumes a minimal index (DESIGN.md §4): under
    // the redundancy strategy, stop deleting once any insertion may have
    // left redundant entries behind.
    if (!minimality && inserted_any) do_insert = true;
    if (do_insert) {
      Vertex u = static_cast<Vertex>(rng.NextBounded(g.num_vertices()));
      Vertex v = static_cast<Vertex>(rng.NextBounded(g.num_vertices()));
      if (u == v || g.HasEdge(u, v)) continue;
      ASSERT_TRUE(InsertEdge(index, u, v, strategy));
      ASSERT_TRUE(g.AddEdge(u, v));
      inserted_any = true;
    } else {
      std::vector<Edge> edges = g.Edges();
      if (edges.empty()) continue;
      Edge e = edges[rng.NextBounded(edges.size())];
      ASSERT_TRUE(RemoveEdge(index, e.from, e.to));
      ASSERT_TRUE(g.RemoveEdge(e.from, e.to));
    }
    BfsCycleCounter bfs(g);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(index.Query(v), bfs.CountCycles(v))
          << "seed=" << seed << " step=" << step << " vertex=" << v;
    }
    if (minimality) {
      CscIndex fresh = CscIndex::Build(g, order);
      ASSERT_EQ(index.served_labels(), fresh.served_labels())
          << "seed=" << seed << " step=" << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndStrategies, MixedUpdateTest,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(std::get<1>(info.param) ? "Minimality"
                                                 : "Redundancy") +
             "_s" + std::to_string(std::get<0>(info.param));
    });

TEST(DynamicStressTest, GrowGraphFromScratchByInsertions) {
  // Build an index on an empty edge set and construct the whole graph
  // through maintenance alone.
  DiGraph empty(20);
  VertexOrdering order = DegreeOrdering(empty);
  CscIndex index = CscIndex::Build(empty, order);
  DiGraph g(20);
  Rng rng(12345);
  for (int i = 0; i < 60; ++i) {
    Vertex u = static_cast<Vertex>(rng.NextBounded(20));
    Vertex v = static_cast<Vertex>(rng.NextBounded(20));
    if (u == v || g.HasEdge(u, v)) continue;
    ASSERT_TRUE(InsertEdge(index, u, v, MaintenanceStrategy::kMinimality));
    ASSERT_TRUE(g.AddEdge(u, v));
  }
  BfsCycleCounter bfs(g);
  for (Vertex v = 0; v < 20; ++v) {
    EXPECT_EQ(index.Query(v), bfs.CountCycles(v)) << "vertex " << v;
  }
  CscIndex fresh = CscIndex::Build(g, order);
  EXPECT_EQ(index.served_labels(), fresh.served_labels());
}

TEST(DynamicStressTest, TearDownGraphByDeletions) {
  DiGraph g = RandomGraph(25, 2.0, 777);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex index = CscIndex::Build(g, order);
  std::vector<Edge> edges = g.Edges();
  for (const Edge& e : edges) {
    ASSERT_TRUE(RemoveEdge(index, e.from, e.to));
    ASSERT_TRUE(g.RemoveEdge(e.from, e.to));
  }
  EXPECT_EQ(g.num_edges(), 0u);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(index.Query(v), (CycleCount{kInfDist, 0}));
  }
  // Only self labels should remain, exactly like a fresh empty build.
  CscIndex fresh = CscIndex::Build(g, order);
  EXPECT_EQ(index.served_labels(), fresh.served_labels());
}

}  // namespace
}  // namespace csc
