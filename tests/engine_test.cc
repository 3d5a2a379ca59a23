#include "serving/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/bfs_cycle.h"
#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "csc/girth.h"
#include "graph/ordering.h"
#include "tests/test_util.h"
#include "util/random.h"

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

TEST(EngineTest, UnknownBackendIsInvalid) {
  EngineOptions options;
  options.backend = "no-such-backend";
  Engine engine(options);
  EXPECT_FALSE(engine.valid());
  EXPECT_FALSE(engine.Build(Figure2Graph()));
  EXPECT_EQ(engine.Query(0), CycleCount{});
}

TEST(EngineTest, BuildAndQueryEveryBackend) {
  DiGraph graph = RandomGraph(50, 2.0, 3);
  std::vector<CycleCount> expected = BfsReference(graph);
  for (const std::string& name : AllBackendNames()) {
    EngineOptions options;
    options.backend = name;
    options.num_threads = 2;
    Engine engine(options);
    ASSERT_TRUE(engine.valid()) << name;
    ASSERT_TRUE(engine.Build(graph)) << name;
    EXPECT_EQ(engine.num_vertices(), graph.num_vertices());
    for (Vertex v = 0; v < graph.num_vertices(); v += 5) {
      EXPECT_EQ(engine.Query(v), expected[v]) << name << " vertex " << v;
    }
    EXPECT_EQ(engine.QueryAll(), expected) << name;
    EXPECT_EQ(engine.Stats().name, name);
  }
}

TEST(EngineTest, RepairingBuildReportsTheShadowConstruction) {
  // A csc engine derives its snapshot from the repair shadow; Stats() must
  // report that construction as the build, as a frozen engine reports its
  // own.
  DiGraph graph = RandomGraph(200, 3.0, 9);
  for (const char* name : {"csc", "frozen"}) {
    EngineOptions options;
    options.backend = name;
    options.build_threads = 2;
    Engine engine(options);
    ASSERT_TRUE(engine.Build(graph)) << name;
    const BackendStats stats = engine.Stats();
    EXPECT_EQ(stats.build_threads, 2u) << name;
    EXPECT_GT(stats.build_seconds, 0.0) << name;
  }
}

TEST(EngineTest, BatchQueryMatchesSequentialAcrossGrains) {
  DiGraph graph = RandomGraph(120, 2.5, 5);
  std::vector<Vertex> workload;
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    workload.push_back(v);
    workload.push_back(graph.num_vertices() - 1 - v);
  }
  EngineOptions options;
  options.backend = "frozen";
  options.num_threads = 4;
  options.batch_grain = 16;  // force multiple parallel chunks
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  std::vector<CycleCount> batched = engine.BatchQuery(workload);
  ASSERT_EQ(batched.size(), workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(batched[i], engine.Query(workload[i])) << "i=" << i;
  }
}

TEST(EngineTest, UpdatesOnDefaultBackend) {
  DiGraph graph = Figure2Graph();
  EngineOptions options;
  options.backend = "csc";
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  std::vector<EdgeUpdate> updates = {EdgeUpdate::Insert(7, 6),
                                     EdgeUpdate::Insert(6, 0),
                                     EdgeUpdate::Insert(7, 6)};  // duplicate
  EXPECT_EQ(engine.ApplyUpdates(updates), 2u);
  graph.AddEdge(7, 6);
  graph.AddEdge(6, 0);
  EXPECT_EQ(engine.QueryAll(), BfsReference(graph));
}

TEST(EngineTest, WarmSnapshotSwapOnStaticBackend) {
  DiGraph graph = Figure2Graph();
  EngineOptions options;
  options.backend = "frozen";
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  std::shared_ptr<CycleIndex> before = engine.snapshot();
  CycleCount before_answer = before->CountShortestCycles(6);

  std::vector<EdgeUpdate> updates = {EdgeUpdate::Insert(7, 6)};
  EXPECT_EQ(engine.ApplyUpdates(updates), 1u);
  graph.AddEdge(7, 6);

  // The engine swapped in a fresh snapshot...
  std::shared_ptr<CycleIndex> after = engine.snapshot();
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(engine.QueryAll(), BfsReference(graph));
  // ...while the retired snapshot keeps answering with its own (old) view.
  EXPECT_EQ(before->CountShortestCycles(6), before_answer);

  // Rejected-only batches do not rebuild.
  std::shared_ptr<CycleIndex> current = engine.snapshot();
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(7, 6)}), 0u);
  EXPECT_EQ(engine.snapshot().get(), current.get());
}

// "csc" lands writes like every other backend: a published snapshot never
// changes, so a reader holding one keeps the pre-update answers while the
// engine serves the post-update ones.
TEST(EngineTest, CscSnapshotIsImmutable) {
  DiGraph graph = Figure2Graph();
  const std::vector<CycleCount> before = BfsReference(graph);
  EngineOptions options;
  options.backend = "csc";
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  std::shared_ptr<CycleIndex> pinned = engine.snapshot();

  ASSERT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(7, 6)}), 1u);
  graph.AddEdge(7, 6);
  const std::vector<CycleCount> after = BfsReference(graph);
  ASSERT_NE(before, after);  // the insert changes some vertex's count

  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(pinned->CountShortestCycles(v), before[v]) << "vertex " << v;
  }
  EXPECT_EQ(engine.QueryAll(), after);
}

// Engine persistence follows the backend interchange contract: every saving
// backend's engine reloads its own bytes ("csc" and "frozen" also each
// other's: one packed arena), and the compact §IV.E payload loads into
// both.
TEST(EngineTest, SaveLoadRoundTrip) {
  DiGraph graph = RandomGraph(40, 2.0, 8);
  const std::vector<CycleCount> expected = BfsReference(graph);
  auto expect_loads = [&](const std::string& bytes, const char* serving,
                          const std::string& saver) {
    EngineOptions options;
    options.backend = serving;
    Engine engine(options);
    ASSERT_TRUE(engine.LoadFrom(bytes)) << saver << " into " << serving;
    EXPECT_EQ(engine.QueryAll(), expected) << saver << " into " << serving;
    // No graph retained after LoadFrom: updates cannot apply.
    EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(0, 1)}), 0u);
  };

  for (const std::string saver : {"csc", "frozen"}) {
    EngineOptions build_options;
    build_options.backend = saver;
    Engine builder(build_options);
    ASSERT_TRUE(builder.Build(graph));
    std::string bytes;
    ASSERT_TRUE(builder.SaveTo(bytes));
    for (const char* serving : {"csc", "frozen"}) {
      expect_loads(bytes, serving, saver);
    }
  }

  const std::string compact =
      CompactIndex::FromIndex(CscIndex::Build(graph, DegreeOrdering(graph)))
          .Serialize();
  for (const char* serving : {"csc", "frozen"}) {
    expect_loads(compact, serving, "compact payload");
  }
}

// Every backend, whether it lands by repair or by rebuild, must agree on
// what counts as "applied" — including edges touching vertices added
// through BuildOptions::reserve_vertices and out-of-range endpoints — and
// converge to the same answers.
TEST(EngineTest, UpdatePathsAgreeOnReserveAndOutOfRange) {
  DiGraph graph = Figure2Graph();  // 10 vertices; 10 and 11 are reserved
  const std::vector<EdgeUpdate> updates = {
      EdgeUpdate::Insert(9, 10),   // attach a reserved vertex
      EdgeUpdate::Insert(10, 0),   // close a cycle through it
      EdgeUpdate::Insert(50, 0),   // out of range: rejected on every path
      EdgeUpdate::Remove(0, 50),   // out of range: rejected on every path
      EdgeUpdate::Remove(11, 10),  // absent edge between reserved vertices
  };
  DiGraph expected_graph = graph;
  expected_graph.AddVertices(2);
  expected_graph.AddEdge(9, 10);
  expected_graph.AddEdge(10, 0);
  std::vector<CycleCount> expected = BfsReference(expected_graph);

  for (const std::string& name : AllBackendNames()) {
    EngineOptions options;
    options.backend = name;
    options.reserve_vertices = 2;
    Engine engine(options);
    ASSERT_TRUE(engine.Build(graph)) << name;
    ASSERT_EQ(engine.num_vertices(), 12u) << name;
    std::vector<UpdateVerdict> verdicts;
    EXPECT_EQ(engine.ApplyUpdates(updates, &verdicts), 2u) << name;
    EXPECT_EQ(verdicts,
              (std::vector<UpdateVerdict>{
                  UpdateVerdict::kApplied, UpdateVerdict::kApplied,
                  UpdateVerdict::kRejected, UpdateVerdict::kRejected,
                  UpdateVerdict::kRejected}))
        << name;
    EXPECT_EQ(engine.QueryAll(), expected) << name;
  }
}

// A batch that is rejected in full must not swap snapshots on the static
// path, and repeated batches must not grow the reserved vertex space (the
// rebuild re-reserving on every swap was the bug).
TEST(EngineTest, StaticRebuildKeepsVertexSpaceStable) {
  EngineOptions options;
  options.backend = "frozen";
  options.reserve_vertices = 3;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(Figure2Graph()));
  ASSERT_EQ(engine.num_vertices(), 13u);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(0, 1)}), 1u);
    EXPECT_EQ(engine.num_vertices(), 13u) << "round " << round;
    EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Remove(0, 1)}), 1u);
    EXPECT_EQ(engine.num_vertices(), 13u) << "round " << round;
  }
}

// An engine restored from a payload has no graph to rebuild from: updates must
// be reported as kNoGraph — distinguishable from per-update rejection —
// until Build supplies the graph.
TEST(EngineTest, NoGraphVerdictAfterLoad) {
  DiGraph graph = Figure2Graph();
  EngineOptions build_options;
  build_options.backend = "csc";
  Engine builder(build_options);
  ASSERT_TRUE(builder.Build(graph));
  std::string bytes;
  ASSERT_TRUE(builder.SaveTo(bytes));

  EngineOptions options;
  options.backend = "frozen";
  Engine engine(options);
  ASSERT_TRUE(engine.LoadFrom(bytes));
  std::vector<EdgeUpdate> updates = {EdgeUpdate::Insert(7, 6),
                                     EdgeUpdate::Insert(100, 0)};
  std::vector<UpdateVerdict> verdicts;
  uint64_t epoch = 42;
  EXPECT_EQ(engine.ApplyUpdates(updates, &verdicts, &epoch), 0u);
  EXPECT_EQ(verdicts, (std::vector<UpdateVerdict>{UpdateVerdict::kNoGraph,
                                                  UpdateVerdict::kNoGraph}));
  // The no-graph rejection resolves immediately (nothing was admitted).
  EXPECT_TRUE(engine.WaitForEpoch(epoch));

  // Build supplies the graph; the same batch then gets real verdicts.
  ASSERT_TRUE(engine.Build(graph));
  EXPECT_EQ(engine.ApplyUpdates(updates, &verdicts), 1u);
  EXPECT_EQ(verdicts, (std::vector<UpdateVerdict>{UpdateVerdict::kApplied,
                                                  UpdateVerdict::kRejected}));
}

// Regression for the duplicate-edge accounting disagreement: updates on the
// same edge inside one batch must collapse to their net effect — exactly
// like dynamic/batch.h's net-effect reduction — on both the repair ("csc")
// and the rebuild-and-swap ("frozen") landing.
TEST(EngineTest, DuplicateEdgesInBatchCollapseToNetEffect) {
  for (const char* name : {"csc", "frozen"}) {
    SCOPED_TRACE(name);
    DiGraph graph = Figure2Graph();
    EngineOptions options;
    options.backend = name;
    Engine engine(options);
    ASSERT_TRUE(engine.Build(graph));
    std::vector<CycleCount> before = engine.QueryAll();
    std::shared_ptr<CycleIndex> initial = engine.snapshot();

    // Insert + remove of an absent edge: a cancelled pair, net zero. The
    // per-update accounting used to report both as applied (count 2).
    std::vector<UpdateVerdict> verdicts;
    EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(7, 0),
                                   EdgeUpdate::Remove(7, 0)},
                                  &verdicts),
              0u);
    EXPECT_EQ(verdicts, (std::vector<UpdateVerdict>{
                            UpdateVerdict::kRejected, UpdateVerdict::kRejected}));
    EXPECT_EQ(engine.QueryAll(), before);
    // Net-zero batches land nothing, so the snapshot is not swapped.
    EXPECT_EQ(engine.snapshot().get(), initial.get());

    // An odd toggle chain nets to its final op: only that one is applied.
    EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(7, 0),
                                   EdgeUpdate::Remove(7, 0),
                                   EdgeUpdate::Insert(7, 0)},
                                  &verdicts),
              1u);
    EXPECT_EQ(verdicts,
              (std::vector<UpdateVerdict>{UpdateVerdict::kRejected,
                                          UpdateVerdict::kRejected,
                                          UpdateVerdict::kApplied}));
    DiGraph target = graph;
    target.AddEdge(7, 0);
    EXPECT_EQ(engine.QueryAll(), BfsReference(target));
  }
}

// Synchronous engines still speak the epoch protocol: tokens resolve
// before ApplyUpdates returns, so WaitForEpoch / Drain are no-ops.
TEST(EngineTest, SynchronousEpochsResolveBeforeReturn) {
  EngineOptions options;
  options.backend = "frozen";
  Engine engine(options);
  ASSERT_TRUE(engine.Build(Figure2Graph()));
  EXPECT_EQ(engine.resolved_epoch(), 0u);
  uint64_t epoch = 0;
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(7, 6)}, nullptr, &epoch),
            1u);
  EXPECT_GT(epoch, 0u);
  EXPECT_EQ(engine.resolved_epoch(), epoch);
  EXPECT_TRUE(engine.WaitForEpoch(epoch));
  engine.Drain();  // nothing pending; must not block
}

TEST(EngineTest, AsyncUpdatesLandAfterDrain) {
  DiGraph graph = Figure2Graph();
  EngineOptions options;
  options.backend = "frozen";
  options.async_updates = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));

  // Several batches admitted back to back: each returns with its own epoch
  // after validation; the rebuild worker may coalesce them into fewer
  // rebuilds, but every epoch must resolve as landed.
  std::vector<uint64_t> epochs;
  std::vector<EdgeUpdate> batches[] = {
      {EdgeUpdate::Insert(7, 6)},
      {EdgeUpdate::Insert(6, 0)},
      {EdgeUpdate::Remove(0, 2), EdgeUpdate::Insert(100, 0)},
  };
  size_t expected_applied[] = {1, 1, 1};
  for (size_t b = 0; b < 3; ++b) {
    uint64_t epoch = 0;
    EXPECT_EQ(engine.ApplyUpdates(batches[b], nullptr, &epoch),
              expected_applied[b]);
    EXPECT_EQ(epoch, b + 1);
    epochs.push_back(epoch);
  }
  engine.Drain();
  for (uint64_t epoch : epochs) {
    EXPECT_TRUE(engine.WaitForEpoch(epoch)) << "epoch " << epoch;
  }
  graph.AddEdge(7, 6);
  graph.AddEdge(6, 0);
  graph.RemoveEdge(0, 2);
  EXPECT_EQ(engine.QueryAll(), BfsReference(graph));

  // Read-your-writes through WaitForEpoch alone (no Drain).
  uint64_t epoch = 0;
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(0, 2)}, nullptr, &epoch),
            1u);
  EXPECT_TRUE(engine.WaitForEpoch(epoch));
  graph.AddEdge(0, 2);
  EXPECT_EQ(engine.QueryAll(), BfsReference(graph));
}

// The rollback guarantee across the async boundary: a failed rebuild
// rolls the admitted batch back, the old snapshot keeps serving, and the
// failure is observable through the batch's epoch token.
TEST(EngineTest, RollbackOnFailedRebuildSyncAndAsync) {
  ClearFailpointsOnExit clear;
  for (bool async_mode : {false, true}) {
    SCOPED_TRACE(async_mode ? "async" : "sync");
    DiGraph graph = Figure2Graph();
    EngineOptions options;
    options.backend = "frozen";
    options.async_updates = async_mode;
    Engine engine(options);
    ASSERT_TRUE(engine.Build(graph));
    std::vector<CycleCount> before = engine.QueryAll();

    ArmFailpoint("engine.rebuild");
    uint64_t failed_epoch = 0;
    std::vector<UpdateVerdict> verdicts;
    size_t admitted = engine.ApplyUpdates({EdgeUpdate::Insert(7, 6)},
                                          &verdicts, &failed_epoch);
    if (async_mode) {
      // Admission succeeds; the failure surfaces when the epoch resolves.
      EXPECT_EQ(admitted, 1u);
      EXPECT_EQ(verdicts.front(), UpdateVerdict::kApplied);
    } else {
      EXPECT_EQ(admitted, 0u);
      EXPECT_EQ(verdicts.front(), UpdateVerdict::kRejected);
    }
    EXPECT_FALSE(engine.WaitForEpoch(failed_epoch));
    EXPECT_EQ(engine.QueryAll(), before);

    // A trivially-resolved batch after a failure must not inherit the
    // failed epoch: its token reflects the newest *landed* state and
    // reports true (regression: it used to hand out resolved_epoch_,
    // which was the failed one).
    uint64_t noop_epoch = 99;
    EXPECT_EQ(engine.ApplyUpdates(
                  {EdgeUpdate::Insert(7, 0), EdgeUpdate::Remove(7, 0)},
                  nullptr, &noop_epoch),
              0u);
    EXPECT_TRUE(engine.WaitForEpoch(noop_epoch));

    // The rollback restored the retained graph: the fired failpoint has
    // disarmed, and the same batch validates and lands exactly as if the
    // failure never happened.
    uint64_t epoch = 0;
    EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(7, 6)}, nullptr, &epoch),
              1u);
    EXPECT_TRUE(engine.WaitForEpoch(epoch));
    DiGraph target = graph;
    target.AddEdge(7, 6);
    EXPECT_EQ(engine.QueryAll(), BfsReference(target));
  }
}

// A rebuild that *throws* (std::bad_alloc, or a staging-task exception
// rethrown by ThreadPool::Wait under build_threads) must behave exactly
// like a failed rebuild: rollback, old snapshot keeps serving, failure
// reported through the epoch — never an escaped exception (which would
// terminate the process on the async worker) or a half-updated graph.
TEST(EngineTest, ThrowingRebuildRollsBackSyncAndAsync) {
  ClearFailpointsOnExit clear;
  for (bool async_mode : {false, true}) {
    SCOPED_TRACE(async_mode ? "async" : "sync");
    DiGraph graph = Figure2Graph();
    EngineOptions options;
    options.backend = "frozen";
    options.async_updates = async_mode;
    options.build_threads = 2;
    Engine engine(options);
    ASSERT_TRUE(engine.Build(graph));
    std::vector<CycleCount> before = engine.QueryAll();

    ArmFailpoint("engine.rebuild", FailpointMode::kThrow);
    uint64_t failed_epoch = 0;
    engine.ApplyUpdates({EdgeUpdate::Insert(7, 6)}, nullptr, &failed_epoch);
    EXPECT_FALSE(engine.WaitForEpoch(failed_epoch));
    EXPECT_EQ(engine.QueryAll(), before);

    // Healed rebuilds land the same batch from the rolled-back state.
    uint64_t epoch = 0;
    EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(7, 6)}, nullptr, &epoch),
              1u);
    EXPECT_TRUE(engine.WaitForEpoch(epoch));
    DiGraph target = graph;
    target.AddEdge(7, 6);
    EXPECT_EQ(engine.QueryAll(), BfsReference(target));
  }
}

TEST(EngineTest, GirthMatchesReference) {
  DiGraph graph = RandomGraph(60, 2.0, 12);
  BfsCycleCounter reference(graph);
  GirthInfo expected = ComputeGirth(
      graph.num_vertices(), [&](Vertex v) { return reference.CountCycles(v); });
  for (const char* name : {"frozen", "bfs"}) {
    EngineOptions options;
    options.backend = name;
    Engine engine(options);
    ASSERT_TRUE(engine.Build(graph));
    GirthInfo actual = engine.Girth();
    EXPECT_EQ(actual.girth, expected.girth) << name;
    EXPECT_EQ(actual.num_girth_vertices, expected.num_girth_vertices) << name;
  }
}

TEST(EngineTest, CscDeleteAfterInsertMatchesBfs) {
  // Decremental repair needs a minimal index, so the csc lander maintains
  // its shadow in minimality mode; a delete after an insert must still
  // answer like BFS. Seeded single-edge toggles mix the two.
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed);
    const auto n = static_cast<Vertex>(12 + rng.NextBounded(20));
    DiGraph graph = RandomGraph(n, 2.0, seed);
    EngineOptions options;
    options.backend = "csc";
    options.num_threads = 1;
    Engine engine(options);
    ASSERT_TRUE(engine.Build(graph));
    for (int step = 0; step < 30; ++step) {
      const auto u = static_cast<Vertex>(rng.NextBounded(n));
      auto v = static_cast<Vertex>(rng.NextBounded(n - 1));
      if (v >= u) ++v;
      const bool present = graph.HasEdge(u, v);
      if (present) {
        graph.RemoveEdge(u, v);
      } else {
        graph.AddEdge(u, v);
      }
      ASSERT_EQ(engine.ApplyUpdates({present ? EdgeUpdate::Remove(u, v)
                                             : EdgeUpdate::Insert(u, v)}),
                1u);
      ASSERT_EQ(engine.QueryAll(), BfsReference(graph))
          << "seed " << seed << ", step " << step;
    }
  }
}

}  // namespace
}  // namespace csc
