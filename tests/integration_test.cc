// End-to-end pipeline tests: generate -> order -> build all engines ->
// query -> serialize -> reload -> resume dynamic maintenance.
#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "csc/frozen_index.h"
#include "dynamic/decremental.h"
#include "dynamic/incremental.h"
#include "graph/graph_io.h"
#include "hpspc/hpspc_index.h"
#include "tests/test_util.h"
#include "util/env.h"
#include "workload/datasets.h"
#include "workload/query_workload.h"
#include "workload/update_workload.h"

namespace csc {
namespace {

TEST(IntegrationTest, DatasetPipelineAllEnginesAgree) {
  // A miniature version of the full bench pipeline on a scaled-down dataset.
  DatasetSpec spec = FindDataset("G04").value();
  DiGraph g = MaterializeDataset(spec, 0.03);  // ~330 vertices
  VertexOrdering order = DegreeOrdering(g);
  CscIndex csc_index = CscIndex::Build(g, order);
  HpSpcIndex hpspc_index = HpSpcIndex::Build(g, order);
  BfsCycleCounter bfs(g);
  QueryWorkload workload = MakeQueryWorkload(g, 50000, 7);
  ASSERT_GT(workload.TotalQueries(), 0u);
  for (const auto& cluster : workload.queries) {
    for (Vertex v : cluster) {
      CycleCount truth = bfs.CountCycles(v);
      ASSERT_EQ(csc_index.Query(v), truth) << "vertex " << v;
      ASSERT_EQ(hpspc_index.CountCycles(v), truth) << "vertex " << v;
    }
  }
}

TEST(IntegrationTest, IndexSizesComparableBetweenEngines) {
  // Figure 9(b)'s qualitative claim: CSC's index (after the §IV.E couple
  // reduction, which is what a deployment stores) is similar in size to
  // HP-SPC's despite the doubled vertex set. Allow 50% slack either way.
  DiGraph g = MaterializeDataset(FindDataset("G04").value(), 0.05);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex csc_index = CscIndex::Build(g, order);
  HpSpcIndex hpspc_index = HpSpcIndex::Build(g, order);
  uint64_t csc_size = CompactIndex::FromIndex(csc_index).SizeBytes();
  uint64_t hpspc_size = hpspc_index.labeling().SizeBytes();
  EXPECT_LT(csc_size, hpspc_size * 3 / 2);
  EXPECT_GT(csc_size, hpspc_size / 2);
}

TEST(IntegrationTest, SaveGraphBuildReloadServeQueries) {
  std::string graph_path = testing::TempDir() + "/itest.edges";
  std::string index_path = testing::TempDir() + "/itest.cscindex";
  DiGraph g = RandomGraph(120, 2.5, 33);
  ASSERT_TRUE(SaveEdgeListFile(g, graph_path));

  auto loaded = LoadEdgeListFile(graph_path);
  ASSERT_TRUE(loaded.has_value());
  CscIndex index = CscIndex::Build(*loaded, DegreeOrdering(*loaded));
  CompactIndex compact = CompactIndex::FromIndex(index);
  ASSERT_TRUE(WriteStringToFile(index_path, compact.Serialize()));

  auto bytes = ReadFileToString(index_path);
  ASSERT_TRUE(bytes.has_value());
  auto reloaded = CompactIndex::Deserialize(*bytes);
  ASSERT_TRUE(reloaded.has_value());
  FrozenIndex served = FrozenIndex::FromCompact(*reloaded);
  BfsCycleCounter bfs(g);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(served.Query(v), bfs.CountCycles(v)) << "vertex " << v;
  }
  std::remove(graph_path.c_str());
  std::remove(index_path.c_str());
}

TEST(IntegrationTest, ReloadedIndexResumesDynamicMaintenance) {
  // Serialize, reload, expand back to a full labeling, and keep updating.
  DiGraph g = RandomGraph(60, 2.0, 44);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex index = CscIndex::Build(g, order);
  CompactIndex compact = CompactIndex::FromIndex(index);
  auto reloaded = CompactIndex::Deserialize(compact.Serialize());
  ASSERT_TRUE(reloaded.has_value());
  HubLabeling expanded = reloaded->ExpandToFull();
  ASSERT_EQ(expanded, ExpandedLabeling(index));

  // Maintenance on the original index object after a compaction round trip
  // (minimality strategy so the later deletions see a minimal index).
  for (const Edge& e : SampleNewEdges(g, 6, 45)) {
    ASSERT_TRUE(
        InsertEdge(index, e.from, e.to, MaintenanceStrategy::kMinimality));
    ASSERT_TRUE(g.AddEdge(e.from, e.to));
  }
  for (const Edge& e : SampleExistingEdges(g, 4, 46)) {
    ASSERT_TRUE(RemoveEdge(index, e.from, e.to));
    ASSERT_TRUE(g.RemoveEdge(e.from, e.to));
  }
  BfsCycleCounter bfs(g);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(index.Query(v), bfs.CountCycles(v)) << "vertex " << v;
  }
}

TEST(IntegrationTest, PaperDynamicWorkloadRemoveThenReinsert) {
  // §VI.A: "[200,500] random edges were removed and then inserted back" —
  // shrunk to 30 edges on a 400-vertex graph; final index must answer
  // exactly like the (unchanged) initial graph.
  DiGraph g = MaterializeDataset(FindDataset("G30").value(), 0.01);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex index = CscIndex::Build(g, order);
  std::vector<CycleCount> before(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) before[v] = index.Query(v);

  std::vector<Edge> edges = SampleExistingEdges(g, 30, 55);
  for (const Edge& e : edges) {
    ASSERT_TRUE(RemoveEdge(index, e.from, e.to));
  }
  for (const Edge& e : edges) {
    ASSERT_TRUE(
        InsertEdge(index, e.from, e.to, MaintenanceStrategy::kMinimality));
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(index.Query(v), before[v]) << "vertex " << v;
  }
  CscIndex fresh = CscIndex::Build(g, order);
  EXPECT_EQ(index.served_labels(), fresh.served_labels());
}

}  // namespace
}  // namespace csc
