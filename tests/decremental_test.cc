#include "dynamic/decremental.h"

#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
#include "dynamic/incremental.h"
#include "tests/test_util.h"
#include "workload/update_workload.h"

namespace csc {
namespace {

void ExpectMatchesBfs(const CscIndex& index, const DiGraph& graph,
                      const std::string& context) {
  BfsCycleCounter bfs(graph);
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    ASSERT_EQ(index.Query(v), bfs.CountCycles(v))
        << context << " vertex " << v;
  }
}

TEST(DecrementalTest, RejectsMissingEdges) {
  DiGraph g = Figure2Graph();
  CscIndex index = CscIndex::Build(g, Figure2Ordering());
  EXPECT_FALSE(RemoveEdge(index, 0, 7));   // v1->v8 never existed
  EXPECT_FALSE(RemoveEdge(index, 3, 3));   // self loop
  EXPECT_FALSE(RemoveEdge(index, 0, 99));  // out of range
  ExpectMatchesBfs(index, g, "untouched");
}

TEST(DecrementalTest, RemovingChainEdgeKillsAllCyclesFigure2) {
  // Every cycle in Figure 2 crosses v7->v8 (ids 6 -> 7).
  DiGraph g = Figure2Graph();
  CscIndex index = CscIndex::Build(g, Figure2Ordering());
  ASSERT_TRUE(RemoveEdge(index, 6, 7));
  g.RemoveEdge(6, 7);
  for (Vertex v = 0; v < 10; ++v) {
    EXPECT_EQ(index.Query(v), (CycleCount{kInfDist, 0})) << "vertex " << v;
  }
  ExpectMatchesBfs(index, g, "after v7->v8 removal");
}

TEST(DecrementalTest, RemovingOneBranchLengthensNothingButDropsCounts) {
  // Removing v1->v4 (ids 0 -> 3) kills one of the three length-6 cycles
  // through v7 but leaves the other two.
  DiGraph g = Figure2Graph();
  CscIndex index = CscIndex::Build(g, Figure2Ordering());
  ASSERT_TRUE(RemoveEdge(index, 0, 3));
  g.RemoveEdge(0, 3);
  EXPECT_EQ(index.Query(6), (CycleCount{6, 2}));
  ExpectMatchesBfs(index, g, "after v1->v4 removal");
}

TEST(DecrementalTest, RemovalCanLengthenShortestCycle) {
  DiGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);  // 2-cycle
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 0);  // 4-cycle 0->1->2->3->0
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  EXPECT_EQ(index.Query(0), (CycleCount{2, 1}));
  ASSERT_TRUE(RemoveEdge(index, 1, 0));
  g.RemoveEdge(1, 0);
  EXPECT_EQ(index.Query(0), (CycleCount{4, 1}));
  ExpectMatchesBfs(index, g, "lengthened");
}

TEST(DecrementalTest, MatchesFreshBuildExactlyAfterEachRemoval) {
  DiGraph g = RandomGraph(35, 2.2, 71);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex index = CscIndex::Build(g, order);
  std::vector<Edge> removals = SampleExistingEdges(g, 15, 72);
  for (const Edge& e : removals) {
    UpdateStats stats;
    ASSERT_TRUE(RemoveEdge(index, e.from, e.to, &stats));
    ASSERT_TRUE(g.RemoveEdge(e.from, e.to));
    ExpectMatchesBfs(index, g, "removal");
    // The recovered index must coincide with a fresh build entry-for-entry
    // (recovery replays construction decisions for the affected hubs).
    CscIndex fresh = CscIndex::Build(g, order);
    ASSERT_EQ(index.served_labels(), fresh.served_labels())
        << "after removing " << e.from << "->" << e.to;
  }
}

TEST(DecrementalTest, RemoveThenReinsertRestoresAnswers) {
  // The paper's Figure 11 workload: remove edges, insert them back.
  DiGraph g = RandomGraph(40, 2.0, 81);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex index = CscIndex::Build(g, order);
  std::vector<CycleCount> before(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) before[v] = index.Query(v);

  std::vector<Edge> edges = SampleExistingEdges(g, 10, 82);
  for (const Edge& e : edges) ASSERT_TRUE(RemoveEdge(index, e.from, e.to));
  for (const Edge& e : edges) {
    ASSERT_TRUE(InsertEdge(index, e.from, e.to,
                           MaintenanceStrategy::kMinimality));
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(index.Query(v), before[v]) << "vertex " << v;
  }
}

TEST(DecrementalTest, StatsReportDeletionsAndRecovery) {
  DiGraph g = Figure2Graph();
  CscIndex index = CscIndex::Build(g, Figure2Ordering());
  UpdateStats stats;
  ASSERT_TRUE(RemoveEdge(index, 6, 7, &stats));
  EXPECT_GT(stats.entries_removed, 0u);
  EXPECT_GT(stats.hubs_processed, 0u);
  EXPECT_GT(stats.seconds, 0.0);
}

TEST(DecrementalTest, WorksWithInvertedIndexesEnabled) {
  DiGraph g = RandomGraph(30, 2.0, 91);
  CscIndex::Options options;
  options.maintain_inverted_index = true;
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g), options);
  for (const Edge& e : SampleExistingEdges(g, 8, 92)) {
    ASSERT_TRUE(RemoveEdge(index, e.from, e.to));
    ASSERT_TRUE(g.RemoveEdge(e.from, e.to));
    ExpectMatchesBfs(index, g, "inv-enabled removal");
  }
  // Inverted indexes must still exactly mirror the labeling.
  const HubLabeling& labels = index.served_labels();
  uint64_t in_entries = 0, out_entries = 0;
  for (Vertex v = 0; v < labels.num_vertices(); ++v) {
    in_entries += labels.in[v].size();
    out_entries += labels.out[v].size();
  }
  EXPECT_EQ(index.inv_in().TotalEntries(), in_entries);
  EXPECT_EQ(index.inv_out().TotalEntries(), out_entries);
}

}  // namespace
}  // namespace csc
