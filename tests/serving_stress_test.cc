// Concurrent-serving stress: BatchQuery readers hammer the engine while the
// (single) writer thread applies update batches — repaired snapshots on
// "csc", rebuilt ones on a static form, each landed by a warm snapshot swap —
// at both the Engine and the ShardedEngine level. Run under ThreadSanitizer in
// CI (-DCSC_SANITIZE=thread) to prove the snapshot-swap and lock protocol
// race-free; the functional assertions here are that readers always see a
// complete, internally consistent answer vector and that the final state
// matches the BFS oracle.
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
#include "csc/girth.h"
#include "serving/engine.h"
#include "serving/sharded_engine.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace csc {
namespace {

constexpr int kReaderThreads = 2;
constexpr int kUpdateRounds = 12;

std::vector<CycleCount> BfsReference(const DiGraph& graph) {
  BfsCycleCounter reference(graph);
  std::vector<CycleCount> answers(graph.num_vertices());
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    answers[v] = reference.CountCycles(v);
  }
  return answers;
}

// A batch of edges absent from `graph`, so inserting then removing them
// round-trips the graph to its initial state every round.
std::vector<Edge> ToggleEdges(const DiGraph& graph) {
  std::vector<Edge> edges;
  Vertex n = graph.num_vertices();
  for (Vertex v = 0; v < n && edges.size() < 6; ++v) {
    Vertex w = (v + n / 2 + 1) % n;
    if (v != w && !graph.HasEdge(v, w)) edges.push_back({v, w});
  }
  return edges;
}

// Drives `query` (a callable returning the all-vertex answer vector) from
// reader threads while the calling thread toggles `edges` through `apply`.
template <typename QueryAllFn, typename ApplyFn>
void RunStress(const DiGraph& graph, const std::vector<Edge>& edges,
               QueryAllFn query_all, ApplyFn apply) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<CycleCount> answers = query_all();
        ASSERT_EQ(answers.size(), graph.num_vertices());
        // Internal consistency: a counted cycle always has a length.
        for (const CycleCount& cc : answers) {
          ASSERT_EQ(cc.count == 0, cc.length == kInfDist);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<EdgeUpdate> inserts, removes;
  for (const Edge& e : edges) {
    inserts.push_back(EdgeUpdate::Insert(e.from, e.to));
    removes.push_back(EdgeUpdate::Remove(e.from, e.to));
  }
  for (int round = 0; round < kUpdateRounds; ++round) {
    ASSERT_EQ(apply(inserts), edges.size()) << "round " << round;
    ASSERT_EQ(apply(removes), edges.size()) << "round " << round;
  }
  // Keep the overlap honest: don't stop until every reader has finished at
  // least one full sweep concurrent with the updates above.
  for (int extra = 0; extra < 100000 && reads.load(std::memory_order_relaxed) <
                                             static_cast<uint64_t>(kReaderThreads);
       ++extra) {
    ASSERT_EQ(apply(inserts), edges.size());
    ASSERT_EQ(apply(removes), edges.size());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GE(reads.load(), static_cast<uint64_t>(kReaderThreads));
}

class ServingStressTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ServingStressTest, EngineReadersVsUpdates) {
  DiGraph graph = RandomGraph(40, 2.0, 77);
  std::vector<Edge> edges = ToggleEdges(graph);
  ASSERT_FALSE(edges.empty());
  EngineOptions options;
  options.backend = GetParam();
  options.num_threads = 2;
  options.batch_grain = 8;  // force parallel chunks inside BatchQuery
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  RunStress(
      graph, edges, [&] { return engine.QueryAll(); },
      [&](const std::vector<EdgeUpdate>& batch) {
        return engine.ApplyUpdates(batch);
      });
  // Net-zero toggles: the final answers equal the initial graph's.
  EXPECT_EQ(engine.QueryAll(), BfsReference(graph));
}

TEST_P(ServingStressTest, ShardedEngineReadersVsUpdates) {
  DiGraph graph = RandomGraph(40, 2.0, 78);
  std::vector<Edge> edges = ToggleEdges(graph);
  ASSERT_FALSE(edges.empty());
  ShardedEngineOptions options;
  options.backend = GetParam();
  options.num_shards = 2;
  options.batch_grain = 8;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  RunStress(
      graph, edges, [&] { return engine.QueryAll(); },
      [&](const std::vector<EdgeUpdate>& batch) {
        return engine.ApplyUpdates(batch);
      });
  EXPECT_EQ(engine.QueryAll(), BfsReference(graph));
}

// Point readers: Engine::Query(v) answers inside the read section through a raw
// snapshot pointer, with no shared_ptr copy. Each batch lands whole (one
// snapshot swap), so every answer must be the BFS answer of the base graph or
// of the base graph plus the toggled edges — never a mix, never a freed
// snapshot.
TEST_P(ServingStressTest, PointReadersVsUpdates) {
  constexpr int kPointReaders = 4;
  constexpr uint64_t kMinReadsPerReader = 200;
  DiGraph graph = RandomGraph(40, 2.0, 79);
  std::vector<Edge> edges = ToggleEdges(graph);
  ASSERT_FALSE(edges.empty());
  DiGraph toggled = graph;
  std::vector<EdgeUpdate> inserts, removes;
  for (const Edge& e : edges) {
    toggled.AddEdge(e.from, e.to);
    inserts.push_back(EdgeUpdate::Insert(e.from, e.to));
    removes.push_back(EdgeUpdate::Remove(e.from, e.to));
  }
  const std::vector<CycleCount> base_answers = BfsReference(graph);
  const std::vector<CycleCount> toggled_answers = BfsReference(toggled);
  EngineOptions options;
  options.backend = GetParam();
  options.num_threads = 2;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));

  std::atomic<bool> stop{false};
  std::vector<std::atomic<uint64_t>> reads(kPointReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kPointReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const Vertex v =
            static_cast<Vertex>(rng.NextBounded(graph.num_vertices()));
        const CycleCount answer = engine.Query(v);
        ASSERT_TRUE(answer == base_answers[v] || answer == toggled_answers[v])
            << "vertex " << v;
        reads[t].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  auto all_readers_overlapped = [&] {
    for (const std::atomic<uint64_t>& count : reads) {
      if (count.load(std::memory_order_relaxed) < kMinReadsPerReader) {
        return false;
      }
    }
    return true;
  };
  // Bounded so a reader that stopped on a failed assertion cannot wedge
  // the writer loop.
  for (int round = 0;
       round < kUpdateRounds || (!all_readers_overlapped() && round < 100000);
       ++round) {
    EXPECT_EQ(engine.ApplyUpdates(inserts), edges.size()) << "round " << round;
    EXPECT_EQ(engine.ApplyUpdates(removes), edges.size()) << "round " << round;
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(engine.QueryAll(), base_answers);
}

// "csc" (§V repair on the lander) and "frozen" (rebuild) cover both ways a
// batch becomes the next snapshot; both land by a warm snapshot swap.
INSTANTIATE_TEST_SUITE_P(DynamicAndStatic, ServingStressTest,
                         ::testing::Values("csc", "frozen"),
                         [](const auto& info) { return info.param; });

// --- Async update pipeline under concurrency: admissions return after
// validation, the rebuild worker lands (and coalesces) the swaps while
// readers keep querying, and WaitForEpoch gives read-your-writes
// mid-flood. Run under TSan with the rest of this file. ---

class AsyncServingStressTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AsyncServingStressTest, EngineReadersVsAsyncRebuilds) {
  DiGraph graph = RandomGraph(40, 2.0, 81);
  std::vector<Edge> edges = ToggleEdges(graph);
  ASSERT_FALSE(edges.empty());
  EngineOptions options;
  options.backend = GetParam();
  options.num_threads = 2;
  options.batch_grain = 8;
  options.async_updates = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  // Every 4th batch checks read-your-writes through its epoch token while
  // the flood continues; the others rely on coalescing alone.
  std::atomic<int> batches{0};
  RunStress(
      graph, edges, [&] { return engine.QueryAll(); },
      [&](const std::vector<EdgeUpdate>& batch) {
        uint64_t epoch = 0;
        size_t applied = engine.ApplyUpdates(batch, nullptr, &epoch);
        if (batches.fetch_add(1, std::memory_order_relaxed) % 4 == 3) {
          EXPECT_TRUE(engine.WaitForEpoch(epoch));
        }
        return applied;
      });
  engine.Drain();
  // Net-zero toggles: after the pipeline drains, the answers equal the
  // initial graph's.
  EXPECT_EQ(engine.QueryAll(), BfsReference(graph));
}

TEST_P(AsyncServingStressTest, ShardedEngineReadersVsAsyncRebuilds) {
  DiGraph graph = RandomGraph(40, 2.0, 82);
  std::vector<Edge> edges = ToggleEdges(graph);
  ASSERT_FALSE(edges.empty());
  ShardedEngineOptions options;
  options.backend = GetParam();
  options.num_shards = 2;
  options.batch_grain = 8;
  options.async_updates = true;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  RunStress(
      graph, edges, [&] { return engine.QueryAll(); },
      [&](const std::vector<EdgeUpdate>& batch) {
        return engine.ApplyUpdates(batch);
      });
  engine.Drain();
  EXPECT_EQ(engine.QueryAll(), BfsReference(graph));
}

// The parallel builder inside the async pipeline: every off-thread rebuild
// runs the rank-batched construction on its own worker pool while readers
// keep querying the old snapshot and the writer floods admissions. TSan
// guards the staging-pool handoff (ThreadPool inside SerialWorker task);
// the functional assertion is exact convergence, which also re-proves
// parallel rebuilds land bit-identical snapshots.
TEST_P(AsyncServingStressTest, AsyncRebuildsWithBuildThreads) {
  DiGraph graph = RandomGraph(40, 2.0, 84);
  std::vector<Edge> edges = ToggleEdges(graph);
  ASSERT_FALSE(edges.empty());
  EngineOptions options;
  options.backend = GetParam();
  options.num_threads = 2;
  options.batch_grain = 8;
  options.async_updates = true;
  options.build_threads = 4;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  std::atomic<int> batches{0};
  RunStress(
      graph, edges, [&] { return engine.QueryAll(); },
      [&](const std::vector<EdgeUpdate>& batch) {
        uint64_t epoch = 0;
        size_t applied = engine.ApplyUpdates(batch, nullptr, &epoch);
        if (batches.fetch_add(1, std::memory_order_relaxed) % 4 == 3) {
          EXPECT_TRUE(engine.WaitForEpoch(epoch));
        }
        return applied;
      });
  engine.Drain();
  EXPECT_EQ(engine.QueryAll(), BfsReference(graph));
  // The landed snapshot must equal a sequentially built one bit for bit.
  std::string parallel_payload, sequential_payload;
  ASSERT_TRUE(engine.SaveTo(parallel_payload));
  std::unique_ptr<CycleIndex> oracle = MakeBackend(GetParam());
  oracle->Build(graph);
  ASSERT_TRUE(oracle->SaveTo(sequential_payload));
  EXPECT_EQ(parallel_payload, sequential_payload);
}

// Rollback under concurrency: rebuilds fail on and off while readers run
// and the writer floods; the per-epoch rollback protocol must keep the
// retained graph consistent with the serving snapshot at every failure, so
// once rebuilds heal the engine converges to the exact oracle state.
TEST_P(AsyncServingStressTest, RollbackRacesReadersAndCoalescedEpochs) {
  DiGraph graph = RandomGraph(40, 2.0, 83);
  std::vector<Edge> edges = ToggleEdges(graph);
  ASSERT_FALSE(edges.empty());
  ClearFailpointsOnExit clear;
  EngineOptions options;
  options.backend = GetParam();
  options.num_threads = 2;
  options.batch_grain = 8;
  options.async_updates = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<CycleCount> answers = engine.QueryAll();
        ASSERT_EQ(answers.size(), graph.num_vertices());
        for (const CycleCount& cc : answers) {
          ASSERT_EQ(cc.count == 0, cc.length == kInfDist);
        }
      }
    });
  }
  std::vector<EdgeUpdate> inserts, removes;
  for (const Edge& e : edges) {
    inserts.push_back(EdgeUpdate::Insert(e.from, e.to));
    removes.push_back(EdgeUpdate::Remove(e.from, e.to));
  }
  // Counts are state-dependent here (a failed epoch rolls its batch back,
  // so the next batch may be a full no-op); the assertions are the reader
  // consistency above and the exact convergence below. A failing round
  // arms one failed landing ahead of each of its batches.
  for (int round = 0; round < kUpdateRounds; ++round) {
    const bool failing = round % 3 == 1;
    if (failing) ArmFailpoint("engine.rebuild");
    engine.ApplyUpdates(inserts);
    if (failing) ArmFailpoint("engine.rebuild");
    engine.ApplyUpdates(removes);
  }
  Failpoints::Instance().ClearAll();
  engine.Drain();
  // Normalize: whatever prefix of batches landed, one healed remove batch
  // leaves exactly the initial graph.
  engine.ApplyUpdates(removes);
  engine.Drain();
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(engine.QueryAll(), BfsReference(graph));
}

// The static serving forms are the ones whose rebuilds the async pipeline
// moves off-thread; "frozen" covers the packed arena.
// Regression: set_slice_keep used to write options_.slice_keep unguarded
// while the async rebuild worker read it off-thread when slicing a fresh
// snapshot (the sharded tier calls the setter right before Build, i.e.
// while a prior rebuild can still be in flight). The predicate now lives
// behind update_mu_; this hammers the setter against a rebuild flood so
// TSan would flag any return of the race. Both predicates keep every
// vertex, so convergence to the oracle is unaffected by which one a given
// rebuild observes.
TEST_P(AsyncServingStressTest, SliceKeepSwapRacesAsyncRebuilds) {
  DiGraph graph = RandomGraph(40, 2.0, 85);
  std::vector<Edge> edges = ToggleEdges(graph);
  ASSERT_FALSE(edges.empty());
  EngineOptions options;
  options.backend = GetParam();
  options.num_threads = 2;
  options.batch_grain = 8;
  options.async_updates = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  std::atomic<int> batches{0};
  RunStress(
      graph, edges, [&] { return engine.QueryAll(); },
      [&](const std::vector<EdgeUpdate>& batch) {
        // Flip the predicate between batches, racing any in-flight rebuild.
        if (batches.fetch_add(1, std::memory_order_relaxed) % 2 == 0) {
          engine.set_slice_keep([](Vertex) { return true; });
        } else {
          engine.set_slice_keep(nullptr);
        }
        return engine.ApplyUpdates(batch);
      });
  engine.set_slice_keep(nullptr);
  engine.Drain();
  EXPECT_EQ(engine.QueryAll(), BfsReference(graph));
}

INSTANTIATE_TEST_SUITE_P(StaticBackends, AsyncServingStressTest,
                         ::testing::Values("frozen"),
                         [](const auto& info) { return info.param; });

// --- Incremental repair under concurrency: batches land as bounded label
// patches (EngineOptions::repair) while readers hammer the snapshot; the
// whole repair branch runs under update_mu_, which readers never take, so
// TSan proves patch application and snapshot swaps race-free. Named inside
// the ServingStressTest family so the CI TSan filter picks it up. ---

class RepairServingStressTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(RepairServingStressTest, EngineReadersVsAsyncPatches) {
  DiGraph graph = RandomGraph(40, 2.0, 85);
  std::vector<Edge> edges = ToggleEdges(graph);
  ASSERT_FALSE(edges.empty());
  EngineOptions options;
  options.backend = GetParam();
  options.num_threads = 2;
  options.batch_grain = 8;
  options.async_updates = true;
  options.repair.enabled = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  ASSERT_TRUE(engine.repair_active());
  std::atomic<int> batches{0};
  RunStress(
      graph, edges, [&] { return engine.QueryAll(); },
      [&](const std::vector<EdgeUpdate>& batch) {
        uint64_t epoch = 0;
        size_t applied = engine.ApplyUpdates(batch, nullptr, &epoch);
        if (batches.fetch_add(1, std::memory_order_relaxed) % 4 == 3) {
          EXPECT_TRUE(engine.WaitForEpoch(epoch));
        }
        return applied;
      });
  engine.Drain();
  EXPECT_GT(engine.repair_stats().patches + engine.repair_stats().rebuilds,
            0u);
  EXPECT_EQ(engine.QueryAll(), BfsReference(graph));
  // Net-zero toggles restored the graph, so the patched snapshot must be
  // byte-identical to a sequential from-scratch build — the repair
  // pipeline's bit-identity oracle, here after racing readers throughout.
  std::string repaired_payload, oracle_payload;
  ASSERT_TRUE(engine.SaveTo(repaired_payload));
  std::unique_ptr<CycleIndex> oracle = MakeBackend(GetParam());
  oracle->Build(graph);
  ASSERT_TRUE(oracle->SaveTo(oracle_payload));
  EXPECT_EQ(repaired_payload, oracle_payload);
}

TEST_P(RepairServingStressTest, ShardedEngineReadersVsAsyncPatches) {
  DiGraph graph = RandomGraph(40, 2.0, 86);
  std::vector<Edge> edges = ToggleEdges(graph);
  ASSERT_FALSE(edges.empty());
  ShardedEngineOptions options;
  options.backend = GetParam();
  options.num_shards = 2;
  options.batch_grain = 8;
  options.async_updates = true;
  options.slice_labels = true;  // exercise the sliced-patch filter too
  options.repair.enabled = true;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  RunStress(
      graph, edges, [&] { return engine.QueryAll(); },
      [&](const std::vector<EdgeUpdate>& batch) {
        return engine.ApplyUpdates(batch);
      });
  engine.Drain();
  RepairStats stats = engine.RepairStatsTotal();
  EXPECT_GT(stats.patches + stats.rebuilds, 0u);
  EXPECT_EQ(engine.QueryAll(), BfsReference(graph));
}

// Injected patch failures race readers and coalesced epochs: the fault
// fires before the shadow is touched, so every failed epoch rolls back
// through the ordinary graph-undo protocol and repair stays active for the
// healed rounds — which must then converge to the exact oracle state.
TEST_P(RepairServingStressTest, PatchFailureRollbackRacesReaders) {
  DiGraph graph = RandomGraph(40, 2.0, 87);
  std::vector<Edge> edges = ToggleEdges(graph);
  ASSERT_FALSE(edges.empty());
  ClearFailpointsOnExit clear;
  EngineOptions options;
  options.backend = GetParam();
  options.num_threads = 2;
  options.batch_grain = 8;
  options.async_updates = true;
  options.repair.enabled = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<CycleCount> answers = engine.QueryAll();
        ASSERT_EQ(answers.size(), graph.num_vertices());
        for (const CycleCount& cc : answers) {
          ASSERT_EQ(cc.count == 0, cc.length == kInfDist);
        }
      }
    });
  }
  std::vector<EdgeUpdate> inserts, removes;
  for (const Edge& e : edges) {
    inserts.push_back(EdgeUpdate::Insert(e.from, e.to));
    removes.push_back(EdgeUpdate::Remove(e.from, e.to));
  }
  for (int round = 0; round < kUpdateRounds; ++round) {
    const bool failing = round % 3 == 1;
    if (failing) ArmFailpoint("engine.patch");
    engine.ApplyUpdates(inserts);
    if (failing) ArmFailpoint("engine.patch");
    engine.ApplyUpdates(removes);
  }
  Failpoints::Instance().ClearAll();
  engine.Drain();
  // Normalize: whatever prefix landed, one healed remove batch restores
  // exactly the initial graph.
  engine.ApplyUpdates(removes);
  engine.Drain();
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  // The injected fault never touches the shadow, so repair survived every
  // rollback...
  EXPECT_TRUE(engine.repair_active());
  EXPECT_EQ(engine.QueryAll(), BfsReference(graph));
  // ...and the healed, rolled-back-and-repaired snapshot still matches the
  // sequential build byte for byte.
  std::string repaired_payload, oracle_payload;
  ASSERT_TRUE(engine.SaveTo(repaired_payload));
  std::unique_ptr<CycleIndex> oracle = MakeBackend(GetParam());
  oracle->Build(graph);
  ASSERT_TRUE(oracle->SaveTo(oracle_payload));
  EXPECT_EQ(repaired_payload, oracle_payload);
}

INSTANTIATE_TEST_SUITE_P(PatchableBackends, RepairServingStressTest,
                         ::testing::Values("frozen"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace csc
