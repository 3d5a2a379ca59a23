// Under the minimality strategy the maintained labels are the minimal
// labeling of the updated graph under the index's ordering, which is unique
// (Theorem V.3): after every landing, per edge or as one batch, insert-only
// or mixed with removals, served_labels() must equal a from-scratch build
// under the same pinned ordering.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "csc/csc_index.h"
#include "dynamic/batch.h"
#include "dynamic/decremental.h"
#include "dynamic/incremental.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "workload/update_workload.h"

namespace csc {
namespace {

// `inserts` new edges, each preceded by the removal of an existing edge
// when `mixed`.
std::vector<EdgeUpdate> Landings(const DiGraph& graph, size_t inserts,
                                 bool mixed, uint64_t seed) {
  std::vector<Edge> added = SampleNewEdges(graph, inserts, seed);
  std::vector<Edge> removed;
  if (mixed) removed = SampleExistingEdges(graph, inserts, seed + 1);
  std::vector<EdgeUpdate> updates;
  for (size_t i = 0; i < added.size(); ++i) {
    if (i < removed.size()) {
      updates.push_back(EdgeUpdate::Remove(removed[i].from, removed[i].to));
    }
    updates.push_back(EdgeUpdate::Insert(added[i].from, added[i].to));
  }
  return updates;
}

void ExpectLandingsMatchFreshBuild(const DiGraph& graph, size_t inserts,
                                   bool mixed, bool batched, uint64_t seed) {
  SCOPED_TRACE("inserts=" + std::to_string(inserts) +
               (mixed ? " mixed" : " insert-only") +
               (batched ? " batch" : " per-edge") +
               " seed=" + std::to_string(seed));
  const VertexOrdering order = DegreeOrdering(graph);
  CscIndex index = CscIndex::Build(graph, order);
  const std::vector<EdgeUpdate> updates =
      Landings(graph, inserts, mixed, seed);
  ASSERT_EQ(updates.size(), mixed ? 2 * inserts : inserts);
  DiGraph target = graph;
  for (const EdgeUpdate& u : updates) {
    if (u.kind == UpdateKind::kInsert) {
      ASSERT_TRUE(target.AddEdge(u.edge.from, u.edge.to));
    } else {
      ASSERT_TRUE(target.RemoveEdge(u.edge.from, u.edge.to));
    }
  }

  if (batched) {
    const HubLabeling before = index.served_labels();
    DirtyLabelTracker dirty;
    BatchOptions options;
    options.strategy = MaintenanceStrategy::kMinimality;
    options.rebuild_threshold = 2.0;  // never rebuild
    options.dirty = &dirty;
    BatchResult result = ApplyUpdates(index, updates, options);
    ASSERT_FALSE(result.rebuilt);
    ASSERT_EQ(result.inserted + result.removed, updates.size());
    // Every set the batch changed, the cleaning's removals included, is
    // marked for patch extraction.
    std::vector<uint8_t> in_marked(graph.num_vertices(), 0);
    std::vector<uint8_t> out_marked(graph.num_vertices(), 0);
    for (Vertex v : dirty.dirty_in()) in_marked[v] = 1;
    for (Vertex v : dirty.dirty_out()) out_marked[v] = 1;
    const HubLabeling& after = index.served_labels();
    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
      if (after.in[v] != before.in[v]) {
        EXPECT_TRUE(in_marked[v]) << "unmarked L_in change at " << v;
      }
      if (after.out[v] != before.out[v]) {
        EXPECT_TRUE(out_marked[v]) << "unmarked L_out change at " << v;
      }
    }
  } else {
    for (const EdgeUpdate& u : updates) {
      if (u.kind == UpdateKind::kInsert) {
        ASSERT_TRUE(InsertEdge(index, u.edge.from, u.edge.to,
                               MaintenanceStrategy::kMinimality));
      } else {
        ASSERT_TRUE(RemoveEdge(index, u.edge.from, u.edge.to));
      }
    }
  }
  EXPECT_EQ(index.served_labels(),
            CscIndex::Build(target, order).served_labels());
}

void ExpectAllLandingsMatchFreshBuild(const DiGraph& graph, uint64_t seed) {
  for (size_t inserts : {1, 4, 16, 64}) {
    for (bool mixed : {false, true}) {
      for (bool batched : {false, true}) {
        ExpectLandingsMatchFreshBuild(graph, inserts, mixed, batched,
                                      seed + inserts);
      }
    }
  }
}

TEST(MinimalityIdentityTest, RandomGraphsMatchFreshBuild) {
  struct Case {
    Vertex n;
    double density;
    uint64_t seed;
  };
  for (const Case& c : {Case{65, 2.0, 1}, Case{65, 3.0, 2}, Case{130, 2.5, 3},
                        Case{260, 2.0, 4}}) {
    ExpectAllLandingsMatchFreshBuild(RandomGraph(c.n, c.density, c.seed),
                                     100 * c.seed);
  }
}

TEST(MinimalityIdentityTest, WktMatchesFreshBuild) {
  ExpectAllLandingsMatchFreshBuild(
      MaterializeDataset(FindDataset("WKT").value(), 0.05), 7);
}

}  // namespace
}  // namespace csc
