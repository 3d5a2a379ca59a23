#include "dynamic/incremental.h"

#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
#include "csc/compact_index.h"
#include "csc/frozen_index.h"
#include "graph/generators.h"
#include "tests/test_util.h"
#include "workload/update_workload.h"

namespace csc {
namespace {

// After maintenance, every vertex's query must match BFS on the live graph.
void ExpectMatchesBfs(const CscIndex& index, const DiGraph& graph,
                      const std::string& context) {
  BfsCycleCounter bfs(graph);
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    ASSERT_EQ(index.Query(v), bfs.CountCycles(v))
        << context << " vertex " << v;
  }
}

TEST(IncrementalTest, RejectsInvalidInsertions) {
  DiGraph g = Figure2Graph();
  CscIndex index = CscIndex::Build(g, Figure2Ordering());
  EXPECT_FALSE(InsertEdge(index, 3, 3));    // self loop
  EXPECT_FALSE(InsertEdge(index, 0, 2));    // already present (v1->v3)
  EXPECT_FALSE(InsertEdge(index, 0, 100));  // out of range
  ExpectMatchesBfs(index, g, "untouched");
}

TEST(IncrementalTest, InsertCreatesShorterCycleFigure2) {
  // Insert v8 -> v7 (ids 7 -> 6): creates a 2-cycle at v7/v8.
  DiGraph g = Figure2Graph();
  CscIndex index = CscIndex::Build(g, Figure2Ordering());
  ASSERT_TRUE(InsertEdge(index, 7, 6));
  g.AddEdge(7, 6);
  EXPECT_EQ(index.Query(6), (CycleCount{2, 1}));
  EXPECT_EQ(index.Query(7), (CycleCount{2, 1}));
  ExpectMatchesBfs(index, g, "after v8->v7");
}

TEST(IncrementalTest, InsertAddsParallelShortestCycle) {
  // Insert v3 -> v7 (ids 2 -> 6): v1->v3->v7 opens a third length-6 cycle
  // through v1 and shortens nothing.
  DiGraph g = Figure2Graph();
  CscIndex index = CscIndex::Build(g, Figure2Ordering());
  ASSERT_TRUE(InsertEdge(index, 2, 6));
  g.AddEdge(2, 6);
  ExpectMatchesBfs(index, g, "after v3->v7");
  EXPECT_EQ(index.Query(0), (CycleCount{6, 3}));  // v1 now has 3
}

TEST(IncrementalTest, InsertIntoEmptyRegionConnectsComponents) {
  DiGraph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  ASSERT_TRUE(InsertEdge(index, 2, 3));
  g.AddEdge(2, 3);
  ExpectMatchesBfs(index, g, "bridge");
  ASSERT_TRUE(InsertEdge(index, 5, 0));  // closes a 6-cycle
  g.AddEdge(5, 0);
  for (Vertex v = 0; v < 6; ++v) {
    EXPECT_EQ(index.Query(v), (CycleCount{6, 1}));
  }
}

TEST(IncrementalTest, SequenceOfInsertionsRedundancyStrategy) {
  DiGraph g = RandomGraph(40, 1.5, 21);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  std::vector<Edge> additions = SampleNewEdges(g, 25, 22);
  ASSERT_GT(additions.size(), 10u);
  for (const Edge& e : additions) {
    ASSERT_TRUE(InsertEdge(index, e.from, e.to));
    ASSERT_TRUE(g.AddEdge(e.from, e.to));
    ExpectMatchesBfs(index, g, "redundancy insert");
  }
}

TEST(IncrementalTest, SequenceOfInsertionsMinimalityStrategy) {
  DiGraph g = RandomGraph(40, 1.5, 31);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  std::vector<Edge> additions = SampleNewEdges(g, 20, 32);
  for (const Edge& e : additions) {
    ASSERT_TRUE(
        InsertEdge(index, e.from, e.to, MaintenanceStrategy::kMinimality));
    ASSERT_TRUE(g.AddEdge(e.from, e.to));
    ExpectMatchesBfs(index, g, "minimality insert");
  }
}

TEST(IncrementalTest, MinimalityMatchesFreshBuildExactly) {
  // Under the minimality strategy the maintained label sets must be
  // identical to a from-scratch build of the updated graph (Theorem V.3:
  // the minimal labeling under a fixed order is unique).
  DiGraph g = RandomGraph(35, 1.8, 41);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex index = CscIndex::Build(g, order);
  std::vector<Edge> additions = SampleNewEdges(g, 12, 42);
  for (const Edge& e : additions) {
    ASSERT_TRUE(
        InsertEdge(index, e.from, e.to, MaintenanceStrategy::kMinimality));
    ASSERT_TRUE(g.AddEdge(e.from, e.to));
  }
  // Note: the same *original* ordering is reused; a fresh DegreeOrdering
  // would rank the grown degrees differently.
  CscIndex fresh = CscIndex::Build(g, order);
  EXPECT_EQ(index.served_labels(), fresh.served_labels());
}

TEST(IncrementalTest, RedundancyNeverShrinksButStaysCorrect) {
  DiGraph g = RandomGraph(30, 2.0, 51);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex index = CscIndex::Build(g, order);
  uint64_t previous = index.TotalEntries();
  for (const Edge& e : SampleNewEdges(g, 10, 52)) {
    UpdateStats stats;
    ASSERT_TRUE(InsertEdge(index, e.from, e.to,
                           MaintenanceStrategy::kRedundancy, &stats));
    ASSERT_TRUE(g.AddEdge(e.from, e.to));
    EXPECT_EQ(stats.entries_removed, 0u);
    EXPECT_GE(index.TotalEntries(), previous);
    previous = index.TotalEntries();
  }
  ExpectMatchesBfs(index, g, "final");
}

TEST(IncrementalTest, StatsReportWork) {
  DiGraph g = Figure2Graph();
  CscIndex index = CscIndex::Build(g, Figure2Ordering());
  UpdateStats stats;
  ASSERT_TRUE(InsertEdge(index, 7, 6, MaintenanceStrategy::kRedundancy,
                         &stats));
  EXPECT_GT(stats.hubs_processed, 0u);
  EXPECT_GT(stats.vertices_visited, 0u);
  EXPECT_GT(stats.entries_added + stats.entries_updated, 0u);
  EXPECT_GT(stats.seconds, 0.0);
}

TEST(IncrementalTest, UpdatedIndexServesCompactQueries) {
  DiGraph g = RandomGraph(40, 2.0, 61);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  for (const Edge& e : SampleNewEdges(g, 8, 62)) {
    ASSERT_TRUE(InsertEdge(index, e.from, e.to));
    ASSERT_TRUE(g.AddEdge(e.from, e.to));
  }
  FrozenIndex served = FrozenIndex::FromCompact(CompactIndex::FromIndex(index));
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(served.Query(v), index.Query(v));
  }
}

}  // namespace
}  // namespace csc
