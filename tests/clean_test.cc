// Direct unit tests for CLEAN_LABEL (Algorithm 8): redundant entries are
// removed, fresh entries survive, and holders of a changed set's owner are
// cleaned even when their own sets did not change.
#include "dynamic/clean.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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

// x reaches w over a five-edge detour, so L_out(x_o) holds (w_i, 9). The
// insert of (a, b) opens x -> h -> a -> b -> w, whose top vertex is h: only
// the forward pass of hub h runs past b, giving L_in(w_i) a new entry, while
// no pass reaches x (h outranks every other hub). x's own set is unchanged,
// yet its w_i entry is now stale; only the holder scan finds it.
TEST(CleanTest, HolderEntryGoesStaleWhileItsOwnSetIsUnchanged) {
  const Vertex h = 0, w = 1, a = 2, b = 3, x = 4;
  DiGraph g(9);
  g.AddEdge(x, h);
  g.AddEdge(h, a);
  g.AddEdge(b, w);
  g.AddEdge(x, 5);  // the detour x -> 5 -> 6 -> 7 -> 8 -> w
  g.AddEdge(5, 6);
  g.AddEdge(6, 7);
  g.AddEdge(7, 8);
  g.AddEdge(8, w);
  const VertexOrdering order =
      OrderingFromPermutation({h, w, a, b, x, 5, 6, 7, 8});
  CscIndex index = CscIndex::Build(g, order);
  const Rank wi = index.bipartite_order().vertex_to_rank[InVertex(w)];
  const LabelEntry* held = index.served_labels().out[x].Find(wi);
  ASSERT_NE(held, nullptr);
  ASSERT_EQ(held->dist(), 9u);

  DirtyLabelTracker changed;
  ASSERT_TRUE(InsertEdgeUncleaned(index, a, b, &changed));
  ASSERT_TRUE(g.AddEdge(a, b));
  const std::vector<Vertex>& in_changed = changed.dirty_in();
  ASSERT_NE(std::find(in_changed.begin(), in_changed.end(), w),
            in_changed.end());
  const std::vector<Vertex>& out_changed = changed.dirty_out();
  ASSERT_EQ(std::find(out_changed.begin(), out_changed.end(), x),
            out_changed.end());
  ASSERT_LT(index.BipartiteQuery(OutVertex(x), InVertex(w)).dist, 9u);
  ASSERT_GT(CountRedundantEntries(index), 0u);

  DirtyLabelTracker dirty;
  UpdateStats stats;
  stats.dirty = &dirty;
  CleanChangedLabels(index, changed, stats);
  EXPECT_EQ(index.served_labels().out[x].Find(wi), nullptr);
  EXPECT_EQ(dirty.dirty_out(), std::vector<Vertex>{x});
  EXPECT_EQ(stats.entries_removed, 1u);
  EXPECT_EQ(CountRedundantEntries(index), 0u);
  EXPECT_EQ(index.served_labels(), CscIndex::Build(g, order).served_labels());
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

  DirtyLabelTracker every_set;
  for (Vertex v = 0; v < index.num_original_vertices(); ++v) {
    every_set.Mark(v, /*in_side=*/true);
    every_set.Mark(v, /*in_side=*/false);
  }
  UpdateStats stats;
  CleanChangedLabels(index, every_set, stats);
  EXPECT_EQ(CountRedundantEntries(index), 0u);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(index.Query(v), before[v]) << "vertex " << v;
  }
}

}  // namespace
}  // namespace csc
