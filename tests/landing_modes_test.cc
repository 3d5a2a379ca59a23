// Landing-mode oracle: every way Engine lands a batch — synchronous or async,
// rebuild-and-swap or incremental repair, with or without a write-ahead log, on
// the patchable "frozen" backend (8 configurations) — must drive one seeded
// batch sequence to the same outcome. After each batch resolves, QueryAll()
// must equal BFS over a model graph that applies only the landed epochs, and
// every configuration must report the same final verdicts, net counts, epoch
// tokens, and landed/rolled-back outcome per batch. The sequence mixes batch sizes
// 1/4/16, inserts and deletes, in-batch cancelling duplicates, a net-zero
// batch, an out-of-range endpoint, and one injected landing failure; WAL
// configurations also recover a fresh engine from the log and compare it with
// the served state.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "baseline/bfs_cycle.h"
#include "serving/engine.h"
#include "tests/test_util.h"

namespace csc {
namespace {

constexpr Vertex kVertices = 24;
constexpr size_t kBatches = 30;
constexpr size_t kFailedBatch = 13;    // its landing is injected to fail
constexpr size_t kNetZeroBatch = 20;   // cancels out entirely: no epoch
constexpr size_t kOutOfRangeBatch = 7;

std::vector<CycleCount> BfsAnswers(const DiGraph& graph) {
  BfsCycleCounter reference(graph);
  std::vector<CycleCount> answers(graph.num_vertices());
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    answers[v] = reference.CountCycles(v);
  }
  return answers;
}

// The raw effect of `batch` on `graph`, exactly as the engine mutates its
// retained graph: every update toggles its edge or is a no-op.
void ApplyToModel(const std::vector<EdgeUpdate>& batch, DiGraph& graph) {
  for (const EdgeUpdate& update : batch) {
    if (update.kind == UpdateKind::kInsert) {
      graph.AddEdge(update.edge.from, update.edge.to);
    } else {
      graph.RemoveEdge(update.edge.from, update.edge.to);
    }
  }
}

// Seeded batches of sizes 1, 4, 16 in rotation. Deletes pick edges of a
// running copy of the graph so most of them really remove something;
// inserts pick random pairs (self-loops and duplicates are rejected
// no-ops). Every fifth batch ends with an insert/remove/insert toggle
// chain on one edge, which nets to its final insert.
std::vector<std::vector<EdgeUpdate>> SeededBatches(DiGraph graph) {
  std::mt19937_64 rng(20221);
  auto pick = [&rng](uint64_t bound) { return rng() % bound; };
  const size_t sizes[] = {1, 4, 16};
  std::vector<std::vector<EdgeUpdate>> batches;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<EdgeUpdate> batch;
    if (b == kNetZeroBatch) {
      // An absent edge inserted and removed again: nothing to land.
      Vertex u = 0;
      Vertex v = 1;
      while (graph.HasEdge(u, v)) v = static_cast<Vertex>(v + 1);
      batches.push_back({EdgeUpdate::Insert(u, v), EdgeUpdate::Remove(u, v)});
      continue;
    }
    for (size_t i = 0; i < sizes[b % 3]; ++i) {
      const auto u = static_cast<Vertex>(pick(kVertices));
      if (pick(2) == 0 && graph.num_edges() > 0) {
        const std::vector<Vertex>& out = graph.OutNeighbors(u);
        if (!out.empty()) {
          batch.push_back(EdgeUpdate::Remove(u, out[pick(out.size())]));
          continue;
        }
      }
      batch.push_back(
          EdgeUpdate::Insert(u, static_cast<Vertex>(pick(kVertices))));
    }
    if (b % 5 == 4) {
      const auto u = static_cast<Vertex>(pick(kVertices));
      const auto v = static_cast<Vertex>((u + 1 + pick(kVertices - 1)) %
                                         kVertices);
      batch.push_back(EdgeUpdate::Insert(u, v));
      batch.push_back(EdgeUpdate::Remove(u, v));
      batch.push_back(EdgeUpdate::Insert(u, v));
    }
    if (b == kOutOfRangeBatch) {
      batch.push_back(EdgeUpdate::Insert(kVertices + 5, 0));
    }
    ApplyToModel(batch, graph);
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct Config {
  std::string backend;
  bool async = false;
  bool repair = false;
  bool wal = false;

  std::string Name() const {
    return backend + (async ? "/async" : "/sync") +
           (repair ? "/repair" : "/rebuild") + (wal ? "/wal" : "/no-wal");
  }
};

// What every configuration must agree on, per batch. Verdicts and the net
// count are the final ones: a rolled-back batch counts 0 and is rejected in
// full (a synchronous engine reports that at return, an async one through
// WaitForEpoch).
struct Trace {
  std::vector<std::vector<UpdateVerdict>> verdicts;
  std::vector<size_t> applied;
  std::vector<uint64_t> epochs;
  std::vector<bool> landed;
};

Trace RunConfig(const Config& config, const DiGraph& graph,
                const std::vector<std::vector<EdgeUpdate>>& batches,
                const std::string& wal_path) {
  ClearFailpointsOnExit clear;
  EngineOptions options;
  options.backend = config.backend;
  options.num_threads = 2;
  options.async_updates = config.async;
  options.repair.enabled = config.repair;
  if (config.wal) options.wal_path = wal_path;
  Engine engine(options);
  EXPECT_TRUE(engine.Build(graph));
  EXPECT_EQ(engine.repair_active(), config.repair);
  EXPECT_EQ(engine.wal_enabled(), config.wal);

  Trace trace;
  DiGraph model = graph;
  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    if (b == kFailedBatch) {
      // Whichever way this configuration lands, its one landing fails.
      ArmFailpoint("engine.rebuild");
      ArmFailpoint("engine.patch");
    }
    std::vector<UpdateVerdict> verdicts;
    uint64_t epoch = 0;
    size_t applied = engine.ApplyUpdates(batches[b], &verdicts, &epoch);
    const bool landed = engine.WaitForEpoch(epoch);
    // The site this configuration does not evaluate is still armed.
    Failpoints::Instance().ClearAll();
    if (!config.async) {
      // A synchronous write has resolved by the time it returns.
      EXPECT_EQ(engine.resolved_epoch(), epoch);
      if (!landed) {
        EXPECT_EQ(applied, 0u);
      }
    }
    if (landed) {
      ApplyToModel(batches[b], model);
    } else {
      verdicts.assign(batches[b].size(), UpdateVerdict::kRejected);
      applied = 0;
    }
    EXPECT_EQ(engine.QueryAll(), BfsAnswers(model));
    trace.verdicts.push_back(std::move(verdicts));
    trace.applied.push_back(applied);
    trace.epochs.push_back(epoch);
    trace.landed.push_back(landed);
  }
  if (config.repair) {
    const RepairStats stats = engine.repair_stats();
    EXPECT_GT(stats.patches + stats.rebuilds, 0u);
  }
  if (config.wal) {
    // Durable state == served state: a fresh engine recovered from the log
    // (the rolled-back batch skipped via its rollback record) answers
    // exactly like the engine that wrote it.
    EngineOptions recover_options;
    recover_options.backend = config.backend;
    recover_options.wal_path = wal_path;
    Engine recovered(recover_options);
    std::string error;
    EXPECT_TRUE(recovered.RecoverFromFile(wal_path + ".no-index", &error))
        << error;
    EXPECT_EQ(recovered.QueryAll(), BfsAnswers(model));
  }
  return trace;
}

TEST(LandingModesAgree, EveryConfigurationLandsTheSameTrace) {
  const DiGraph graph = RandomGraph(kVertices, 2.0, 31);
  const std::vector<std::vector<EdgeUpdate>> batches = SeededBatches(graph);
  const std::string wal_path = testing::TempDir() + "/landing_modes.wal";

  std::vector<Config> configs;
  for (const char* backend : {"frozen"}) {
    for (bool async : {false, true}) {
      for (bool repair : {false, true}) {
        for (bool wal : {false, true}) {
          configs.push_back({backend, async, repair, wal});
        }
      }
    }
  }
  ASSERT_EQ(configs.size(), 8u);

  Trace reference;
  for (size_t c = 0; c < configs.size(); ++c) {
    SCOPED_TRACE(configs[c].Name());
    std::remove(wal_path.c_str());
    Trace trace = RunConfig(configs[c], graph, batches, wal_path);
    std::remove(wal_path.c_str());
    if (c == 0) {
      reference = std::move(trace);
      // The sequence really exercises what it claims to.
      ASSERT_EQ(reference.landed.size(), kBatches);
      EXPECT_FALSE(reference.landed[kFailedBatch]);
      for (size_t b = 0; b < kBatches; ++b) {
        if (b != kFailedBatch) {
          EXPECT_TRUE(reference.landed[b]) << b;
        }
      }
      EXPECT_EQ(reference.applied[kNetZeroBatch], 0u);
      EXPECT_EQ(reference.epochs[kNetZeroBatch],
                reference.epochs[kNetZeroBatch - 1]);
      EXPECT_EQ(reference.verdicts[kOutOfRangeBatch].back(),
                UpdateVerdict::kRejected);
      continue;
    }
    EXPECT_EQ(trace.verdicts, reference.verdicts);
    EXPECT_EQ(trace.applied, reference.applied);
    EXPECT_EQ(trace.epochs, reference.epochs);
    EXPECT_EQ(trace.landed, reference.landed);
  }
}

}  // namespace
}  // namespace csc
