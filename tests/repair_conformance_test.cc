// Incremental-repair conformance: a repair-enabled engine that lands batches as
// bounded label patches must stay bit-identical to the sequential full-rebuild
// oracle. For every patchable backend and shard count, a net-restoring mixed
// insert/delete sequence followed by Drain() must serialize byte-for-byte equal
// to a from-scratch build of the same graph; non-restoring sequences must match
// the always-derive twin (same pinned ordering, no patch path); budget knobs
// only change *how* a batch lands, never the bytes; unpatchable backends fall
// back to rebuild-and-swap untouched; and "csc" repairs without the knob.
#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
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
  return {"csc", "frozen", "compressed"};
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
// here is the always-derive twin — same pinned ordering, every batch forced
// through the shadow-rebuild + derive path (rebuild_threshold = 0), no
// patches involved. Patching and deriving must produce the same bytes.
TEST_P(RepairConformanceTest, NonRestoringSequenceMatchesAlwaysDeriveTwin) {
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

  EngineOptions patch_options;
  patch_options.backend = backend;
  patch_options.repair.enabled = true;
  Engine patching(patch_options);
  ASSERT_TRUE(patching.Build(graph));
  ASSERT_TRUE(patching.repair_active());

  EngineOptions derive_options = patch_options;
  derive_options.repair.rebuild_threshold = 0.0;  // always rebuild + derive
  Engine deriving(derive_options);
  ASSERT_TRUE(deriving.Build(graph));

  for (const std::vector<EdgeUpdate>& batch : batches) {
    EXPECT_EQ(patching.ApplyUpdates(batch), deriving.ApplyUpdates(batch));
  }
  EXPECT_GT(patching.repair_stats().patches, 0u);
  EXPECT_EQ(deriving.repair_stats().patches, 0u);
  EXPECT_GT(deriving.repair_stats().rebuilds, 0u);

  std::string patched_bytes, derived_bytes;
  ASSERT_TRUE(patching.SaveTo(patched_bytes));
  ASSERT_TRUE(deriving.SaveTo(derived_bytes));
  EXPECT_EQ(patched_bytes, derived_bytes);
  EXPECT_EQ(patching.QueryAll(), BfsReference(mutated));
}

// The patch budgets only pick between "patch" and "derive" — the resulting
// bytes are the same either way. max_repair_hubs = 1 forces every batch to
// derive.
TEST_P(RepairConformanceTest, BudgetKnobsChangeHowNotWhat) {
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(50, 2.5, 64);
  std::vector<std::vector<EdgeUpdate>> batches = NetRestoringBatches(graph);
  EngineOptions options;
  options.backend = backend;
  options.repair.enabled = true;
  options.repair.max_repair_hubs = 1;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  for (const std::vector<EdgeUpdate>& batch : batches) {
    engine.ApplyUpdates(batch);
  }
  EXPECT_EQ(engine.repair_stats().patches, 0u);
  EXPECT_GT(engine.repair_stats().rebuilds, 0u);

  EngineOptions oracle_options;
  oracle_options.backend = backend;
  Engine oracle(oracle_options);
  ASSERT_TRUE(oracle.Build(graph));
  std::string budgeted_bytes, oracle_bytes;
  ASSERT_TRUE(engine.SaveTo(budgeted_bytes));
  ASSERT_TRUE(oracle.SaveTo(oracle_bytes));
  EXPECT_EQ(budgeted_bytes, oracle_bytes);
}

// The BackendStats patch counters surface through Engine::Stats() (and
// from there the CLI): patched batches accumulate, a fresh Build resets.
TEST_P(RepairConformanceTest, PatchCountersSurfaceInStats) {
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(50, 2.5, 65);
  std::vector<std::vector<EdgeUpdate>> batches = NetRestoringBatches(graph);
  EngineOptions options;
  options.backend = backend;
  options.repair.enabled = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  EXPECT_EQ(engine.Stats().patches_since_rebuild, 0u);
  for (const std::vector<EdgeUpdate>& batch : batches) {
    engine.ApplyUpdates(batch);
  }
  ASSERT_GT(engine.repair_stats().patches, 0u);
  BackendStats stats = engine.Stats();
  EXPECT_EQ(stats.patches_since_rebuild, engine.repair_stats().patches);
  EXPECT_GT(stats.patch_hubs_repaired, 0u);
  EXPECT_GT(stats.patch_label_bytes, 0u);
  EXPECT_EQ(stats.patch_hubs_repaired, engine.repair_stats().hubs_repaired);
  EXPECT_EQ(stats.patch_label_bytes, engine.repair_stats().label_bytes);

  // A from-scratch Build starts a new patch generation.
  ASSERT_TRUE(engine.Build(graph));
  EXPECT_EQ(engine.Stats().patches_since_rebuild, 0u);
  EXPECT_EQ(engine.repair_stats().patches, 0u);
}

// Injected patch failure on the synchronous path: the batch rolls back
// through the ordinary per-epoch protocol (graph restored, snapshot
// untouched, all verdicts kRejected) and the engine keeps repairing once
// the fault clears.
TEST_P(RepairConformanceTest, SyncPatchFailureRollsBack) {
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(50, 2.5, 66);
  std::vector<std::vector<EdgeUpdate>> batches = NetRestoringBatches(graph);
  auto fail = std::make_shared<std::atomic<bool>>(true);
  EngineOptions options;
  options.backend = backend;
  options.repair.enabled = true;
  options.fail_patch_for_testing = [fail] { return fail->load(); };
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  std::vector<CycleCount> before = engine.QueryAll();

  std::vector<UpdateVerdict> verdicts;
  EXPECT_EQ(engine.ApplyUpdates(batches[0], &verdicts), 0u);
  ASSERT_EQ(verdicts.size(), batches[0].size());
  for (UpdateVerdict verdict : verdicts) {
    EXPECT_EQ(verdict, UpdateVerdict::kRejected);
  }
  EXPECT_EQ(engine.QueryAll(), before);
  EXPECT_TRUE(engine.repair_active());

  // Healed: the same sequence lands and converges to the byte oracle.
  fail->store(false);
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
