// Incremental-repair conformance: a repair-enabled engine that lands batches as
// bounded label patches must stay bit-identical to the sequential full-rebuild
// oracle. For every patchable backend and shard count, a net-restoring mixed
// insert/delete sequence followed by Drain() must serialize byte-for-byte equal
// to a from-scratch build of the same graph; non-restoring sequences must match
// a from-scratch build under the pinned ordering; a batch past the rebuild
// threshold derives instead of patching, with the same bytes; unpatchable
// backends fall back to rebuild-and-swap untouched; and "csc" repairs without
// the knob.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "graph/ordering.h"
#include "serving/engine.h"
#include "serving/sharded_engine.h"
#include "tests/test_util.h"
#include "workload/update_workload.h"

namespace csc {
namespace {

std::vector<CycleCount> BfsReference(const DiGraph& graph) {
  BfsCycleCounter reference(graph);
  std::vector<CycleCount> answers(graph.num_vertices());
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    answers[v] = reference.CountCycles(v);
  }
  return answers;
}

// Deterministic non-edges of `graph`, spread across the vertex space.
std::vector<Edge> AbsentEdges(const DiGraph& graph, size_t count) {
  std::vector<Edge> edges;
  Vertex n = graph.num_vertices();
  for (Vertex v = 0; v < n && edges.size() < count; v += 3) {
    Vertex w = (v + n / 2 + 1) % n;
    if (v != w && !graph.HasEdge(v, w)) edges.push_back({v, w});
  }
  return edges;
}

// Three mixed insert/delete batches whose composition restores `graph`
// exactly: every absent edge inserted is later removed and every present
// edge removed is later re-inserted, but no single batch is a no-op. After
// the sequence the pinned repair ordering equals the fresh-build ordering,
// which is what makes byte-comparison against a from-scratch build valid.
std::vector<std::vector<EdgeUpdate>> NetRestoringBatches(
    const DiGraph& graph) {
  std::vector<Edge> absent = AbsentEdges(graph, 3);
  std::vector<Edge> present = SampleExistingEdges(graph, 2, 777);
  EXPECT_GE(absent.size(), 3u);
  EXPECT_GE(present.size(), 2u);
  const Edge a0 = absent[0], a1 = absent[1], a2 = absent[2];
  const Edge e0 = present[0], e1 = present[1];
  return {
      {EdgeUpdate::Insert(a0.from, a0.to), EdgeUpdate::Insert(a1.from, a1.to),
       EdgeUpdate::Remove(e0.from, e0.to)},
      {EdgeUpdate::Remove(a1.from, a1.to), EdgeUpdate::Insert(a2.from, a2.to),
       EdgeUpdate::Remove(e1.from, e1.to), EdgeUpdate::Insert(e0.from, e0.to)},
      {EdgeUpdate::Remove(a0.from, a0.to), EdgeUpdate::Remove(a2.from, a2.to),
       EdgeUpdate::Insert(e1.from, e1.to)},
  };
}

std::string Serialized(ShardedEngine& engine) {
  std::string bytes;
  EXPECT_TRUE(engine.SaveTo(bytes));
  return bytes;
}

// The serving forms with patchable label storage — exactly the backends
// Engine routes through the repair pipeline ("csc" always, the others when
// repair is enabled).
std::vector<std::string> PatchableBackends() {
  return {"csc", "frozen"};
}

class RepairConformanceTest : public ::testing::TestWithParam<std::string> {};

// The acceptance oracle of the repair pipeline: after Drain(), a repaired
// index serializes byte-identical to a sequential from-scratch build, for
// every shard count, sync and async alike.
TEST_P(RepairConformanceTest, ByteIdentityAfterDrainAcrossShards) {
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(50, 2.5, 61);
  std::vector<std::vector<EdgeUpdate>> batches = NetRestoringBatches(graph);
  for (uint32_t shards : {1u, 2u, 4u}) {
    for (bool async : {false, true}) {
      SCOPED_TRACE(backend + " shards=" + std::to_string(shards) +
                   (async ? " async" : " sync"));
      ShardedEngineOptions options;
      options.backend = backend;
      options.num_shards = shards;
      options.async_updates = async;
      options.repair.enabled = true;
      ShardedEngine repaired(options);
      ASSERT_TRUE(repaired.Build(graph));
      for (const std::vector<EdgeUpdate>& batch : batches) {
        repaired.ApplyUpdates(batch);
      }
      repaired.Drain();
      // The batches landed through the repair pipeline, not silently via
      // the legacy rebuild path.
      RepairStats stats = repaired.RepairStatsTotal();
      EXPECT_GT(stats.patches + stats.rebuilds, 0u);

      // From-scratch oracle on the (restored) graph, repair disabled — the
      // plain sequential build path.
      ShardedEngineOptions oracle_options = options;
      oracle_options.repair.enabled = false;
      ShardedEngine oracle(oracle_options);
      ASSERT_TRUE(oracle.Build(graph));
      EXPECT_EQ(Serialized(repaired), Serialized(oracle));
      EXPECT_EQ(repaired.QueryAll(), BfsReference(graph));
    }
  }
}

// Label-sliced shards: patch runs for unowned vertices are filtered out
// before application, so a repaired sliced shard stays byte-identical to a
// freshly built-and-sliced one.
TEST_P(RepairConformanceTest, SlicedShardsStayByteIdentical) {
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(50, 2.5, 62);
  std::vector<std::vector<EdgeUpdate>> batches = NetRestoringBatches(graph);
  ShardedEngineOptions options;
  options.backend = backend;
  options.num_shards = 2;
  options.slice_labels = true;
  options.repair.enabled = true;
  ShardedEngine repaired(options);
  ASSERT_TRUE(repaired.Build(graph));
  for (const std::vector<EdgeUpdate>& batch : batches) {
    repaired.ApplyUpdates(batch);
  }
  repaired.Drain();
  EXPECT_GT(repaired.RepairStatsTotal().patches, 0u);

  ShardedEngineOptions oracle_options = options;
  oracle_options.repair.enabled = false;
  ShardedEngine oracle(oracle_options);
  ASSERT_TRUE(oracle.Build(graph));
  EXPECT_EQ(Serialized(repaired), Serialized(oracle));
  EXPECT_EQ(repaired.QueryAll(), BfsReference(graph));
}

// A sequence that does NOT restore the initial graph: the rebuild oracle
// would re-derive its ordering from the mutated graph, so the byte oracle
// here is a from-scratch build of the mutated graph under the pinned
// ordering (the Build-time degree ordering), loaded into the same backend.
TEST_P(RepairConformanceTest, NonRestoringSequenceMatchesPinnedOrderBuild) {
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(50, 2.5, 63);
  std::vector<std::vector<EdgeUpdate>> batches = NetRestoringBatches(graph);
  batches.pop_back();  // drop the restoring tail: net change remains
  DiGraph mutated = graph;
  for (const std::vector<EdgeUpdate>& batch : batches) {
    for (const EdgeUpdate& update : batch) {
      if (update.kind == UpdateKind::kInsert) {
        mutated.AddEdge(update.edge.from, update.edge.to);
      } else {
        mutated.RemoveEdge(update.edge.from, update.edge.to);
      }
    }
  }

  EngineOptions options;
  options.backend = backend;
  options.repair.enabled = true;
  Engine patching(options);
  ASSERT_TRUE(patching.Build(graph));
  ASSERT_TRUE(patching.repair_active());
  for (const std::vector<EdgeUpdate>& batch : batches) {
    EXPECT_GT(patching.ApplyUpdates(batch), 0u);
  }
  EXPECT_GT(patching.repair_stats().patches, 0u);

  std::unique_ptr<CycleIndex> oracle = MakeBackend(backend);
  ASSERT_TRUE(oracle->LoadFrom(
      CompactIndex::FromIndex(CscIndex::Build(mutated, DegreeOrdering(graph)))
          .Serialize()));
  std::string patched_bytes, oracle_bytes;
  ASSERT_TRUE(patching.SaveTo(patched_bytes));
  ASSERT_TRUE(oracle->SaveTo(oracle_bytes));
  EXPECT_EQ(patched_bytes, oracle_bytes);
  EXPECT_EQ(patching.QueryAll(), BfsReference(mutated));
}

// A batch whose net change reaches kDefaultRebuildThreshold of the edges
// rebuilds the shadow under the pinned ordering and derives the snapshot
// instead of patching it — with the same bytes a fresh build produces.
// Inserting m/2 new edges (1/2 of m) and then removing them (1/3 of 3m/2)
// both cross the 1/4 threshold.
TEST_P(RepairConformanceTest, BatchPastRebuildThresholdDerives) {
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(50, 2.5, 64);
  std::vector<EdgeUpdate> inserts, removes;
  for (const Edge& e : SampleNewEdges(graph, graph.num_edges() / 2, 64)) {
    inserts.push_back(EdgeUpdate::Insert(e.from, e.to));
    removes.push_back(EdgeUpdate::Remove(e.from, e.to));
  }
  EngineOptions options;
  options.backend = backend;
  options.repair.enabled = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  EXPECT_EQ(engine.ApplyUpdates(inserts), inserts.size());
  EXPECT_EQ(engine.ApplyUpdates(removes), removes.size());
  EXPECT_EQ(engine.repair_stats().patches, 0u);
  EXPECT_EQ(engine.repair_stats().rebuilds, 2u);

  EngineOptions oracle_options;
  oracle_options.backend = backend;
  Engine oracle(oracle_options);
  ASSERT_TRUE(oracle.Build(graph));
  std::string derived_bytes, oracle_bytes;
  ASSERT_TRUE(engine.SaveTo(derived_bytes));
  ASSERT_TRUE(oracle.SaveTo(oracle_bytes));
  EXPECT_EQ(derived_bytes, oracle_bytes);
}

// RepairStats is the one record of repair work: patched batches accumulate
// their runs and bytes, and a fresh Build starts from zero.
TEST_P(RepairConformanceTest, RepairStatsAccumulateAndResetOnBuild) {
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(50, 2.5, 65);
  std::vector<std::vector<EdgeUpdate>> batches = NetRestoringBatches(graph);
  EngineOptions options;
  options.backend = backend;
  options.repair.enabled = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  EXPECT_EQ(engine.repair_stats().patches, 0u);
  RepairStats previous;
  for (const std::vector<EdgeUpdate>& batch : batches) {
    engine.ApplyUpdates(batch);
    const RepairStats stats = engine.repair_stats();
    EXPECT_EQ(stats.patches + stats.rebuilds,
              previous.patches + previous.rebuilds + 1);
    EXPECT_GE(stats.hubs_repaired, previous.hubs_repaired);
    EXPECT_GE(stats.label_bytes, previous.label_bytes);
    previous = stats;
  }
  ASSERT_GT(previous.patches, 0u);
  EXPECT_GT(previous.hubs_repaired, 0u);
  EXPECT_GT(previous.label_bytes, 0u);

  // A from-scratch Build starts a new generation.
  ASSERT_TRUE(engine.Build(graph));
  const RepairStats reset = engine.repair_stats();
  EXPECT_EQ(reset.patches, 0u);
  EXPECT_EQ(reset.rebuilds, 0u);
  EXPECT_EQ(reset.hubs_repaired, 0u);
  EXPECT_EQ(reset.label_bytes, 0u);
}

// Injected patch failure on the synchronous path: the batch rolls back
// through the ordinary per-epoch protocol (graph restored, snapshot
// untouched, all verdicts kRejected) and the engine keeps repairing once
// the fault clears.
TEST_P(RepairConformanceTest, SyncPatchFailureRollsBack) {
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(50, 2.5, 66);
  std::vector<std::vector<EdgeUpdate>> batches = NetRestoringBatches(graph);
  ClearFailpointsOnExit clear;
  EngineOptions options;
  options.backend = backend;
  options.repair.enabled = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  std::vector<CycleCount> before = engine.QueryAll();

  ArmFailpoint("engine.patch");
  std::vector<UpdateVerdict> verdicts;
  EXPECT_EQ(engine.ApplyUpdates(batches[0], &verdicts), 0u);
  ASSERT_EQ(verdicts.size(), batches[0].size());
  for (UpdateVerdict verdict : verdicts) {
    EXPECT_EQ(verdict, UpdateVerdict::kRejected);
  }
  EXPECT_EQ(engine.QueryAll(), before);
  EXPECT_TRUE(engine.repair_active());

  // Healed (the fired failpoint disarmed itself): the same sequence lands
  // and converges to the byte oracle.
  for (const std::vector<EdgeUpdate>& batch : batches) {
    engine.ApplyUpdates(batch);
  }
  EngineOptions oracle_options;
  oracle_options.backend = backend;
  Engine oracle(oracle_options);
  ASSERT_TRUE(oracle.Build(graph));
  std::string repaired_bytes, oracle_bytes;
  ASSERT_TRUE(engine.SaveTo(repaired_bytes));
  ASSERT_TRUE(oracle.SaveTo(oracle_bytes));
  EXPECT_EQ(repaired_bytes, oracle_bytes);
}

INSTANTIATE_TEST_SUITE_P(PatchableBackends, RepairConformanceTest,
                         ::testing::ValuesIn(PatchableBackends()),
                         [](const auto& info) { return info.param; });

// Backends outside the repair envelope ignore the knob: unpatchable
// backends keep rebuild-and-swap, and a loaded engine (no retained graph)
// never repairs.
TEST(RepairConformanceFallback, NonPatchableBackendsIgnoreRepair) {
  DiGraph graph = RandomGraph(40, 2.0, 67);
  std::vector<std::vector<EdgeUpdate>> batches = NetRestoringBatches(graph);
  for (const char* backend : {"bfs", "hpspc"}) {
    SCOPED_TRACE(backend);
    EngineOptions options;
    options.backend = backend;
    options.repair.enabled = true;
    Engine engine(options);
    ASSERT_TRUE(engine.Build(graph));
    EXPECT_FALSE(engine.repair_active());
    for (const std::vector<EdgeUpdate>& batch : batches) {
      engine.ApplyUpdates(batch);
    }
    EXPECT_EQ(engine.repair_stats().patches, 0u);
    EXPECT_EQ(engine.QueryAll(), BfsReference(graph));
  }
}

// "csc" lands every batch through the repair pipeline whether or not the
// knob is set; the other patchable forms repair only on request.
TEST(RepairConformanceFallback, CscRepairsWithoutTheKnob) {
  DiGraph graph = RandomGraph(40, 2.0, 69);
  EngineOptions options;
  options.repair.enabled = false;
  options.backend = "csc";
  Engine csc_engine(options);
  ASSERT_TRUE(csc_engine.Build(graph));
  EXPECT_TRUE(csc_engine.repair_active());
  options.backend = "frozen";
  Engine frozen_engine(options);
  ASSERT_TRUE(frozen_engine.Build(graph));
  EXPECT_FALSE(frozen_engine.repair_active());

  for (const std::vector<EdgeUpdate>& batch : NetRestoringBatches(graph)) {
    EXPECT_EQ(csc_engine.ApplyUpdates(batch),
              frozen_engine.ApplyUpdates(batch));
  }
  EXPECT_GT(csc_engine.repair_stats().patches, 0u);
  EXPECT_EQ(frozen_engine.repair_stats().patches, 0u);
  EXPECT_EQ(csc_engine.QueryAll(), BfsReference(graph));
  // The batches restore the graph: csc's patched snapshot serializes like
  // frozen's rebuilt one.
  std::string patched_bytes, rebuilt_bytes;
  ASSERT_TRUE(csc_engine.SaveTo(patched_bytes));
  ASSERT_TRUE(frozen_engine.SaveTo(rebuilt_bytes));
  EXPECT_EQ(patched_bytes, rebuilt_bytes);
}

TEST(RepairConformanceFallback, LoadedEngineDoesNotRepair) {
  DiGraph graph = RandomGraph(40, 2.0, 68);
  EngineOptions options;
  options.backend = "frozen";
  options.repair.enabled = true;
  Engine built(options);
  ASSERT_TRUE(built.Build(graph));
  ASSERT_TRUE(built.repair_active());
  std::string payload;
  ASSERT_TRUE(built.SaveTo(payload));

  Engine loaded(options);
  ASSERT_TRUE(loaded.LoadFrom(payload));
  EXPECT_FALSE(loaded.repair_active());
  // No retained graph: updates report kNoGraph, exactly as before.
  std::vector<UpdateVerdict> verdicts;
  EXPECT_EQ(loaded.ApplyUpdates({EdgeUpdate::Insert(0, 1)}, &verdicts), 0u);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0], UpdateVerdict::kNoGraph);
}

}  // namespace
}  // namespace csc
