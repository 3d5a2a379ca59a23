#include "dynamic/batch.h"

#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
#include "dynamic/decremental.h"
#include "dynamic/incremental.h"
#include "graph/ordering.h"
#include "tests/test_util.h"
#include "workload/update_workload.h"

namespace csc {
namespace {

CscIndex BuildIndex(const DiGraph& graph) {
  return CscIndex::Build(graph, DegreeOrdering(graph));
}

// Asserts that `index` answers every vertex like a BFS oracle on `graph`.
void ExpectMatchesOracle(const CscIndex& index, const DiGraph& graph) {
  BfsCycleCounter oracle(graph);
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    ASSERT_EQ(index.Query(v), oracle.CountCycles(v)) << "vertex " << v;
  }
}

// `index` holds the caller's mutated graph `target` (the same vertex space
// and edges) and the labels of a fresh build of it under `order`.
void ExpectTracksGraph(const CscIndex& index, const DiGraph& target,
                       const VertexOrdering& order) {
  ASSERT_EQ(index.graph().num_vertices(), target.num_vertices());
  EXPECT_EQ(index.graph().num_edges(), target.num_edges());
  EXPECT_EQ(index.graph().Edges(), target.Edges());
  CscIndex fresh = CscIndex::Build(target, order);
  EXPECT_EQ(index.bipartite_order().rank_to_vertex,
            fresh.bipartite_order().rank_to_vertex);
  EXPECT_EQ(index.served_labels(), fresh.served_labels());
}

// A minimality-maintained index with two reserved vertices, built like the
// serving tier's shadow; `target` gets the same grown vertex space.
CscIndex BuildReserved(const DiGraph& graph, DiGraph& target) {
  CscIndex::Options options;
  options.reserve_vertices = 2;
  target = graph;
  target.AddVertices(options.reserve_vertices);
  return CscIndex::Build(graph, DegreeOrdering(graph), options);
}

TEST(ShadowGraphTest, TracksPerEdgeUpdates) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE(seed);
    const Vertex n = 40;
    DiGraph target;
    CscIndex index = BuildReserved(RandomGraph(n, 2.5, seed), target);
    // Reserved vertices rank last, as in the grown graph's own degree
    // ordering, which the labels stay pinned to.
    const VertexOrdering order = DegreeOrdering(target);
    ExpectTracksGraph(index, target, order);
    // InsertEdge attaches both reserved vertices.
    for (const Edge& e : {Edge{0, n}, Edge{n, 1}, Edge{n + 1, n},
                          Edge{2, n + 1}}) {
      ASSERT_TRUE(InsertEdge(index, e.from, e.to,
                             MaintenanceStrategy::kMinimality));
      target.AddEdge(e.from, e.to);
      ExpectTracksGraph(index, target, order);
    }
    for (const Edge& e : SampleExistingEdges(target, 4, seed + 10)) {
      ASSERT_TRUE(RemoveEdge(index, e.from, e.to));
      target.RemoveEdge(e.from, e.to);
      ExpectTracksGraph(index, target, order);
    }
    for (const Edge& e : SampleNewEdges(target, 4, seed + 20)) {
      ASSERT_TRUE(InsertEdge(index, e.from, e.to,
                             MaintenanceStrategy::kMinimality));
      target.AddEdge(e.from, e.to);
      ExpectTracksGraph(index, target, order);
    }
  }
}

TEST(ShadowGraphTest, TracksApplyUpdatesBatches) {
  // Threshold 2 keeps every batch on per-edge repair; 0 rebuilds every batch
  // from the index's own graph, under the pinned ordering or a fresh degree
  // ordering of the mutated graph.
  struct Case {
    double threshold;
    bool pinned;
  };
  for (const Case& c : {Case{2.0, true}, Case{0.0, true}, Case{0.0, false}}) {
    SCOPED_TRACE(testing::Message() << "threshold " << c.threshold
                                    << (c.pinned ? " pinned" : ""));
    const Vertex n = 40;
    DiGraph target;
    CscIndex index = BuildReserved(RandomGraph(n, 2.5, 11), target);
    const VertexOrdering pinned = DegreeOrdering(target);
    BatchOptions options;
    options.strategy = MaintenanceStrategy::kMinimality;
    options.rebuild_threshold = c.threshold;
    options.pinned_order = c.pinned ? &pinned : nullptr;
    for (uint64_t round = 0; round < 3; ++round) {
      std::vector<EdgeUpdate> batch;
      for (const Edge& e : SampleExistingEdges(target, 3, 30 + round)) {
        batch.push_back(EdgeUpdate::Remove(e.from, e.to));
      }
      for (const Edge& e : SampleNewEdges(target, 3, 40 + round)) {
        batch.push_back(EdgeUpdate::Insert(e.from, e.to));
      }
      // A path through a reserved vertex.
      const Vertex r = n + static_cast<Vertex>(round % 2);
      const Vertex u = static_cast<Vertex>(round);
      batch.push_back(EdgeUpdate::Insert(u, r));
      batch.push_back(EdgeUpdate::Insert(r, u + 5));
      for (const EdgeUpdate& update : batch) {
        if (update.kind == UpdateKind::kInsert) {
          target.AddEdge(update.edge.from, update.edge.to);
        } else {
          target.RemoveEdge(update.edge.from, update.edge.to);
        }
      }
      BatchResult result = ApplyUpdates(index, batch, options);
      EXPECT_EQ(result.rebuilt, c.threshold == 0.0);
      ExpectTracksGraph(index, target,
                        c.pinned ? pinned : DegreeOrdering(target));
    }
    // A compaction rebuild keeps the graph and re-orders by degree.
    RebuildIndex(index);
    ExpectTracksGraph(index, target, DegreeOrdering(target));
  }
}

TEST(BatchTest, EmptyBatchIsNoOp) {
  DiGraph graph = Figure2Graph();
  CscIndex index = BuildIndex(graph);
  BatchResult result = ApplyUpdates(index, {});
  EXPECT_EQ(result.inserted, 0u);
  EXPECT_EQ(result.removed, 0u);
  EXPECT_EQ(result.skipped, 0u);
  EXPECT_FALSE(result.rebuilt);
  ExpectMatchesOracle(index, graph);
}

TEST(BatchTest, InsertOnlyBatchMatchesSequential) {
  DiGraph graph = RandomGraph(50, 2.0, 3);
  CscIndex index = BuildIndex(graph);
  std::vector<Edge> new_edges = SampleNewEdges(graph, 8, 1);

  std::vector<EdgeUpdate> updates;
  DiGraph target = graph;
  for (const Edge& e : new_edges) {
    updates.push_back(EdgeUpdate::Insert(e.from, e.to));
    target.AddEdge(e.from, e.to);
  }
  BatchOptions options;
  options.rebuild_threshold = 2.0;  // force the per-edge path
  BatchResult result = ApplyUpdates(index, updates, options);
  EXPECT_EQ(result.inserted, new_edges.size());
  EXPECT_FALSE(result.rebuilt);
  ExpectMatchesOracle(index, target);
}

TEST(BatchTest, RemoveThenInsertBatch) {
  DiGraph graph = RandomGraph(50, 2.5, 5);
  CscIndex index = BuildIndex(graph);
  std::vector<Edge> removals = SampleExistingEdges(graph, 5, 2);
  std::vector<Edge> inserts = SampleNewEdges(graph, 5, 3);

  std::vector<EdgeUpdate> updates;
  DiGraph target = graph;
  for (const Edge& e : removals) {
    updates.push_back(EdgeUpdate::Remove(e.from, e.to));
    target.RemoveEdge(e.from, e.to);
  }
  for (const Edge& e : inserts) {
    updates.push_back(EdgeUpdate::Insert(e.from, e.to));
    target.AddEdge(e.from, e.to);
  }
  BatchOptions options;
  options.rebuild_threshold = 2.0;
  BatchResult result = ApplyUpdates(index, updates, options);
  EXPECT_EQ(result.removed, removals.size());
  EXPECT_EQ(result.inserted, inserts.size());
  EXPECT_EQ(result.inserted + result.removed + result.skipped,
            updates.size());
  ExpectMatchesOracle(index, target);
}

TEST(BatchTest, CancellingPairsAreSkipped) {
  DiGraph graph = Figure2Graph();
  CscIndex index = BuildIndex(graph);
  // Insert a new edge then remove it again inside one batch; and remove an
  // existing edge then re-insert it. Net effect: nothing.
  std::vector<EdgeUpdate> updates = {
      EdgeUpdate::Insert(7, 0), EdgeUpdate::Remove(7, 0),
      EdgeUpdate::Remove(0, 2), EdgeUpdate::Insert(0, 2)};
  BatchResult result = ApplyUpdates(index, updates);
  EXPECT_EQ(result.inserted, 0u);
  EXPECT_EQ(result.removed, 0u);
  EXPECT_EQ(result.skipped, 4u);
  EXPECT_FALSE(result.rebuilt);
  ExpectMatchesOracle(index, graph);
}

TEST(BatchTest, InvalidUpdatesAreSkipped) {
  DiGraph graph = Figure2Graph();
  CscIndex index = BuildIndex(graph);
  std::vector<EdgeUpdate> updates = {
      EdgeUpdate::Insert(3, 3),     // self-loop
      EdgeUpdate::Insert(0, 2),     // already present
      EdgeUpdate::Remove(7, 0),     // absent
      EdgeUpdate::Insert(0, 9999),  // out of range
  };
  BatchResult result = ApplyUpdates(index, updates);
  EXPECT_EQ(result.skipped, 4u);
  EXPECT_EQ(result.inserted + result.removed, 0u);
  ExpectMatchesOracle(index, graph);
}

TEST(BatchTest, DuplicateInsertsCollapseToOne) {
  DiGraph graph = Figure2Graph();
  CscIndex index = BuildIndex(graph);
  std::vector<EdgeUpdate> updates = {
      EdgeUpdate::Insert(7, 0), EdgeUpdate::Insert(7, 0),
      EdgeUpdate::Insert(7, 0)};
  BatchOptions options;
  options.rebuild_threshold = 2.0;
  BatchResult result = ApplyUpdates(index, updates, options);
  EXPECT_EQ(result.inserted, 1u);
  EXPECT_EQ(result.skipped, 2u);
  DiGraph target = graph;
  target.AddEdge(7, 0);
  ExpectMatchesOracle(index, target);
}

TEST(BatchTest, LargeBatchTriggersRebuild) {
  DiGraph graph = RandomGraph(40, 2.0, 7);
  CscIndex index = BuildIndex(graph);
  std::vector<Edge> inserts = SampleNewEdges(graph, 40, 4);
  std::vector<EdgeUpdate> updates;
  DiGraph target = graph;
  for (const Edge& e : inserts) {
    updates.push_back(EdgeUpdate::Insert(e.from, e.to));
    target.AddEdge(e.from, e.to);
  }
  BatchOptions options;
  options.rebuild_threshold = 0.25;  // 40 new edges on ~80: way past it
  BatchResult result = ApplyUpdates(index, updates, options);
  EXPECT_TRUE(result.rebuilt);
  EXPECT_EQ(result.inserted, inserts.size());
  ExpectMatchesOracle(index, target);
}

TEST(BatchTest, RebuiltIndexSupportsFurtherMaintenance) {
  DiGraph graph = RandomGraph(40, 2.0, 9);
  CscIndex index = BuildIndex(graph);
  std::vector<Edge> inserts = SampleNewEdges(graph, 30, 5);
  std::vector<EdgeUpdate> updates;
  DiGraph target = graph;
  for (const Edge& e : inserts) {
    updates.push_back(EdgeUpdate::Insert(e.from, e.to));
    target.AddEdge(e.from, e.to);
  }
  BatchOptions options;
  options.rebuild_threshold = 0.0;  // always rebuild
  ASSERT_TRUE(ApplyUpdates(index, updates, options).rebuilt);

  // The rebuilt index is fresh (minimal): removals must work on it.
  std::vector<Edge> removals = SampleExistingEdges(target, 4, 6);
  std::vector<EdgeUpdate> removal_batch;
  for (const Edge& e : removals) {
    removal_batch.push_back(EdgeUpdate::Remove(e.from, e.to));
    target.RemoveEdge(e.from, e.to);
  }
  BatchOptions per_edge;
  per_edge.rebuild_threshold = 2.0;
  BatchResult result = ApplyUpdates(index, removal_batch, per_edge);
  EXPECT_EQ(result.removed, removals.size());
  ExpectMatchesOracle(index, target);
}

TEST(BatchTest, MinimalityStrategyKeepsIndexMinimalAcrossBatches) {
  DiGraph graph = RandomGraph(40, 2.5, 11);
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));

  BatchOptions options;
  options.strategy = MaintenanceStrategy::kMinimality;
  options.rebuild_threshold = 2.0;

  DiGraph target = graph;
  for (uint64_t round = 0; round < 3; ++round) {
    std::vector<Edge> inserts = SampleNewEdges(target, 3, 20 + round);
    std::vector<EdgeUpdate> updates;
    for (const Edge& e : inserts) {
      updates.push_back(EdgeUpdate::Insert(e.from, e.to));
      target.AddEdge(e.from, e.to);
    }
    // Minimality-maintained index admits removals in a later batch.
    std::vector<Edge> removals = SampleExistingEdges(target, 2, 30 + round);
    for (const Edge& e : removals) {
      updates.push_back(EdgeUpdate::Remove(e.from, e.to));
      target.RemoveEdge(e.from, e.to);
    }
    ApplyUpdates(index, updates, options);
    ExpectMatchesOracle(index, target);
  }
}

// A threshold above 1 never rebuilds: not on an edgeless index (here one of
// reserved vertices only), where any batch is "all of the edges", and not
// for a batch with more inserts than the graph has edges. Both run the
// per-edge repair, including InsertEdge on an edgeless graph.
TEST(BatchTest, ThresholdAboveOneNeverRebuilds) {
  CscIndex::Options build_options;
  build_options.reserve_vertices = 6;
  DiGraph graph;
  const VertexOrdering empty_order = DegreeOrdering(graph);
  CscIndex index = CscIndex::Build(graph, empty_order, build_options);
  // The order a fresh build of the grown graph pins: reserved vertex v is
  // ranked v.
  const VertexOrdering order =
      OrderingFromPermutation({0, 1, 2, 3, 4, 5});

  BatchOptions options;
  options.strategy = MaintenanceStrategy::kMinimality;
  options.rebuild_threshold = 10;
  options.pinned_order = &order;
  DiGraph target(6);
  std::vector<EdgeUpdate> first = {EdgeUpdate::Insert(0, 1),
                                   EdgeUpdate::Insert(1, 0)};
  std::vector<EdgeUpdate> second;
  for (Vertex u = 0; u < 6; ++u) {
    for (Vertex v = 0; v < 6; ++v) {
      if (u == v || (u < 2 && v < 2)) continue;
      second.push_back(EdgeUpdate::Insert(u, v));
    }
  }
  ASSERT_EQ(second.size(), 28u);
  for (const std::vector<EdgeUpdate>* batch : {&first, &second}) {
    for (const EdgeUpdate& u : *batch) target.AddEdge(u.edge.from, u.edge.to);
    BatchResult result = ApplyUpdates(index, *batch, options);
    EXPECT_FALSE(result.rebuilt) << batch->size() << " inserts";
    EXPECT_EQ(result.inserted, batch->size());
    ExpectMatchesOracle(index, target);
    EXPECT_EQ(index.served_labels(),
              CscIndex::Build(target, order).served_labels())
        << batch->size() << " inserts";
  }
}

TEST(RebuildIndexTest, PreservesAnswersAndRestoresMinimality) {
  DiGraph graph = RandomGraph(50, 2.5, 13);
  CscIndex index = BuildIndex(graph);
  // Pile up redundancy-mode insertions.
  DiGraph target = graph;
  for (const Edge& e : SampleNewEdges(graph, 10, 14)) {
    InsertEdge(index, e.from, e.to);
    target.AddEdge(e.from, e.to);
  }
  uint64_t entries_before = index.TotalEntries();
  RebuildIndex(index);
  // A fresh build is never larger than the redundancy-maintained index.
  EXPECT_LE(index.TotalEntries(), entries_before);
  ExpectMatchesOracle(index, target);

  // And the rebuilt index equals a from-scratch build entry-for-entry.
  CscIndex fresh = BuildIndex(target);
  EXPECT_EQ(index.served_labels(), fresh.served_labels());
}

}  // namespace
}  // namespace csc
