// Direct unit tests for CLEAN_LABEL (Algorithm 8): redundant entries are
// removed, fresh entries survive, and inverted indexes stay in sync.
#include "dynamic/clean.h"

#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
#include "dynamic/incremental.h"
#include "graph/bipartite.h"
#include "workload/update_workload.h"
#include "tests/test_util.h"

namespace csc {
namespace {

// Count label entries of the full four-set labeling whose stored distance
// exceeds the live 2-hop distance (the redundancy definition, Definition
// V.2).
uint64_t CountRedundantEntries(const CscIndex& index) {
  uint64_t redundant = 0;
  const auto& order = index.bipartite_order();
  const HubLabeling full = ExpandedLabeling(index);
  for (Vertex v = 0; v < full.num_vertices(); ++v) {
    for (const LabelEntry& e : full.in[v].entries()) {
      Vertex hub = order.rank_to_vertex[e.hub()];
      if (e.dist() > index.BipartiteQuery(hub, v).dist) ++redundant;
    }
    for (const LabelEntry& e : full.out[v].entries()) {
      Vertex hub = order.rank_to_vertex[e.hub()];
      if (e.dist() > index.BipartiteQuery(v, hub).dist) ++redundant;
    }
  }
  return redundant;
}

TEST(CleanTest, FreshIndexHasNoRedundantEntries) {
  DiGraph g = RandomGraph(40, 2.5, 7);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  EXPECT_EQ(CountRedundantEntries(index), 0u);
}

// A graph where inserting (2, 3) strands a stale entry: the old h -> w path
// (1 -> 5 -> 6 -> 7 -> 8 -> 4, hub h = 1) is overtaken by the new path
// 1 -> 0 -> 2 -> 3 -> 4, whose prefix is covered by the higher-ranked
// vertex 0 — so hub 1 is never replayed and its L_in(w) entry goes stale.
DiGraph StaleEntryGraph() {
  DiGraph g(11);
  g.AddEdge(1, 0);                  // h -> x
  g.AddEdge(0, 2);                  // x -> a
  g.AddEdge(0, 9);                  // degree padding: x must outrank h
  g.AddEdge(0, 10);
  g.AddEdge(3, 4);                  // b -> w
  g.AddEdge(1, 5);                  // the old detour h -> ... -> w
  g.AddEdge(5, 6);
  g.AddEdge(6, 7);
  g.AddEdge(7, 8);
  g.AddEdge(8, 4);
  return g;
}

TEST(CleanTest, RedundancyStrategyAccumulatesStaleEntries) {
  DiGraph g = StaleEntryGraph();
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  ASSERT_TRUE(InsertEdge(index, 2, 3, MaintenanceStrategy::kRedundancy));
  EXPECT_GT(CountRedundantEntries(index), 0u);
  // Stale entries are harmless: the query still matches BFS ground truth.
  g.AddEdge(2, 3);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(index.Query(v), BfsCountCycles(g, v)) << "vertex " << v;
  }
}

TEST(CleanTest, MinimalityStrategyLeavesNoRedundantEntries) {
  DiGraph g = StaleEntryGraph();
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  ASSERT_TRUE(InsertEdge(index, 2, 3, MaintenanceStrategy::kMinimality));
  EXPECT_EQ(CountRedundantEntries(index), 0u);
}

TEST(CleanTest, CleaningKeepsInvertedIndexConsistent) {
  DiGraph g = RandomGraph(30, 2.0, 17);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  index.EnsureInvertedIndexes();
  for (const Edge& e : SampleNewEdges(g, 10, 18)) {
    ASSERT_TRUE(
        InsertEdge(index, e.from, e.to, MaintenanceStrategy::kMinimality));
  }
  const HubLabeling& labels = index.served_labels();
  uint64_t in_entries = 0, out_entries = 0;
  for (Vertex v = 0; v < labels.num_vertices(); ++v) {
    in_entries += labels.in[v].size();
    out_entries += labels.out[v].size();
  }
  EXPECT_EQ(index.inv_in().TotalEntries(), in_entries);
  EXPECT_EQ(index.inv_out().TotalEntries(), out_entries);
  // Spot-check membership: every in-label entry is registered under its hub.
  for (Vertex v = 0; v < labels.num_vertices(); ++v) {
    for (const LabelEntry& e : labels.in[v].entries()) {
      EXPECT_TRUE(index.inv_in().Vertices(e.hub()).count(v))
          << "hub rank " << e.hub() << " vertex " << v;
    }
  }
}

TEST(CleanTest, FullSweepRestoresMinimalityAfterRedundantUpdates) {
  // Accumulate stale entries with redundancy-mode inserts, then run the
  // cleaning pass over every vertex: all redundancy must disappear while
  // every query answer is preserved.
  DiGraph g = RandomGraph(25, 2.0, 23);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  for (const Edge& e : SampleNewEdges(g, 12, 24)) {
    ASSERT_TRUE(
        InsertEdge(index, e.from, e.to, MaintenanceStrategy::kRedundancy));
    ASSERT_TRUE(g.AddEdge(e.from, e.to));
  }
  std::vector<CycleCount> before(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) before[v] = index.Query(v);

  index.EnsureInvertedIndexes();
  UpdateStats stats;
  for (Vertex v = 0; v < index.num_original_vertices(); ++v) {
    CleanAfterInLabelChange(index, v, stats);
    CleanAfterOutLabelChange(index, v, stats);
  }
  EXPECT_EQ(CountRedundantEntries(index), 0u);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(index.Query(v), before[v]) << "vertex " << v;
  }
}

}  // namespace
}  // namespace csc
