// Sharded serving conformance: for every registered backend, a
// ShardedEngine must return bit-identical answers to a single Engine on the
// same graph for every shard count — per-vertex, whole-graph sweeps, girth,
// and screening, before and after a mixed insert/delete update batch. Plus
// the multi-shard envelope: round trip, shard-count adoption, and per-shard
// corruption detection.
#include "serving/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "csc/girth.h"
#include "csc/index_io.h"
#include "tests/test_util.h"

namespace csc {
namespace {

std::vector<EdgeUpdate> MixedBatch() {
  // Against Figure2Graph: two fresh inserts, one real delete, a duplicate
  // insert (rejected), an absent delete (rejected), and two out-of-range
  // endpoints (rejected on every path).
  return {EdgeUpdate::Insert(7, 6),   EdgeUpdate::Insert(6, 0),
          EdgeUpdate::Remove(0, 2),   EdgeUpdate::Insert(7, 6),
          EdgeUpdate::Remove(4, 5),   EdgeUpdate::Insert(100, 0),
          EdgeUpdate::Remove(0, 100)};
}

void ExpectSameGirth(GirthInfo expected, GirthInfo actual,
                     const std::string& context) {
  EXPECT_EQ(actual.girth, expected.girth) << context;
  EXPECT_EQ(actual.num_girth_vertices, expected.num_girth_vertices) << context;
  EXPECT_EQ(actual.example_vertex, expected.example_vertex) << context;
}

class ShardedConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedConformanceTest, MatchesSingleEngineAcrossShardCounts) {
  const std::string& backend = GetParam();
  DiGraph graph = Figure2Graph();
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(backend + " shards=" + std::to_string(shards));
    EngineOptions single_options;
    single_options.backend = backend;
    Engine single(single_options);
    ASSERT_TRUE(single.Build(graph));

    ShardedEngineOptions options;
    options.backend = backend;
    options.num_shards = shards;
    ShardedEngine sharded(options);
    ASSERT_TRUE(sharded.valid());
    ASSERT_TRUE(sharded.Build(graph));
    ASSERT_EQ(sharded.num_shards(), shards);
    EXPECT_EQ(sharded.num_vertices(), single.num_vertices());

    EXPECT_EQ(sharded.QueryAll(), single.QueryAll());
    ExpectSameGirth(single.Girth(), sharded.Girth(), "before updates");
    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
      EXPECT_EQ(sharded.Query(v), single.Query(v)) << "vertex " << v;
    }

    std::vector<EdgeUpdate> updates = MixedBatch();
    size_t single_applied = single.ApplyUpdates(updates);
    size_t sharded_applied = sharded.ApplyUpdates(updates);
    EXPECT_EQ(sharded_applied, single_applied);
    EXPECT_EQ(single_applied, 3u);  // both fresh inserts + the real delete

    EXPECT_EQ(sharded.QueryAll(), single.QueryAll());
    ExpectSameGirth(single.Girth(), sharded.Girth(), "after updates");
  }
}

TEST_P(ShardedConformanceTest, RandomGraphSweepsMatch) {
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(60, 2.5, 17);
  EngineOptions single_options;
  single_options.backend = backend;
  Engine single(single_options);
  ASSERT_TRUE(single.Build(graph));
  std::vector<CycleCount> expected = single.QueryAll();

  ShardedEngineOptions options;
  options.backend = backend;
  options.num_shards = 4;
  ShardedEngine sharded(options);
  ASSERT_TRUE(sharded.Build(graph));
  EXPECT_EQ(sharded.QueryAll(), expected);
  ExpectSameGirth(single.Girth(), sharded.Girth(), backend);

  // Batched routing with shuffled, repeated, and out-of-range vertices.
  std::vector<Vertex> workload;
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    workload.push_back(graph.num_vertices() - 1 - v);
    workload.push_back(v / 2);
  }
  workload.push_back(graph.num_vertices() + 5);  // out of range -> {}
  std::vector<CycleCount> batched = sharded.BatchQuery(workload);
  ASSERT_EQ(batched.size(), workload.size());
  for (size_t i = 0; i + 1 < workload.size(); ++i) {
    EXPECT_EQ(batched[i], expected[workload[i]]) << "i=" << i;
  }
  EXPECT_EQ(batched.back(), CycleCount{});
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ShardedConformanceTest,
                         ::testing::ValuesIn(AllBackendNames()),
                         [](const auto& info) { return info.param; });

TEST(ShardedEngineTest, ContiguousRangePartitionCoversAndBalances) {
  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 4;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.Build(RandomGraph(50, 2.0, 3)));
  std::vector<Vertex> owned(4, 0);
  for (Vertex v = 0; v < engine.num_vertices(); ++v) {
    uint32_t s = engine.ShardOf(v);
    ASSERT_LT(s, 4u);
    ++owned[s];
  }
  Vertex total = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(owned[s], engine.Stats()[s].owned_vertices);
    EXPECT_LE(owned[s], (engine.num_vertices() + 3) / 4);
    total += owned[s];
  }
  EXPECT_EQ(total, engine.num_vertices());
}

TEST(ShardedEngineTest, MoreShardsThanVertices) {
  ShardedEngineOptions options;
  options.backend = "bfs";
  options.num_shards = 8;
  ShardedEngine engine(options);
  DiGraph graph = DiGraph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
  ASSERT_TRUE(engine.Build(graph));
  std::vector<CycleCount> all = engine.QueryAll();
  ASSERT_EQ(all.size(), 3u);
  for (Vertex v = 0; v < 3; ++v) {
    EXPECT_EQ(all[v], (CycleCount{3, 1}));
  }
  EXPECT_EQ(engine.Girth().girth, 3u);
}

TEST(ShardedEngineTest, PluggableShardFnStaysExact) {
  DiGraph graph = RandomGraph(40, 2.5, 9);
  EngineOptions single_options;
  single_options.backend = "frozen";
  Engine single(single_options);
  ASSERT_TRUE(single.Build(graph));

  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 3;
  options.shard_fn = [](Vertex v, uint32_t num_shards, Vertex) {
    return v % num_shards;  // round-robin instead of contiguous ranges
  };
  ShardedEngine sharded(options);
  ASSERT_TRUE(sharded.Build(graph));
  EXPECT_EQ(sharded.QueryAll(), single.QueryAll());
  ExpectSameGirth(single.Girth(), sharded.Girth(), "round-robin");
}

TEST(ShardedEngineTest, ScreeningMergeMatchesSingleEngineRanking) {
  DiGraph graph = RandomGraph(60, 3.0, 21);
  EngineOptions single_options;
  single_options.backend = "frozen";
  Engine single(single_options);
  ASSERT_TRUE(single.Build(graph));
  std::vector<CycleCount> answers = single.QueryAll();

  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 4;
  ShardedEngine sharded(options);
  ASSERT_TRUE(sharded.Build(graph));

  for (Dist max_len : {Dist{3}, Dist{5}, kInfDist}) {
    for (size_t top_k : {size_t{1}, size_t{5}, size_t{1000}}) {
      // Reference ranking straight from the single-engine answers.
      std::vector<ScreeningHit> expected;
      for (Vertex v = 0; v < answers.size(); ++v) {
        if (answers[v].count == 0 || answers[v].length > max_len) continue;
        expected.push_back({v, answers[v]});
      }
      std::sort(expected.begin(), expected.end(),
                [](const ScreeningHit& a, const ScreeningHit& b) {
                  if (a.cycles.count != b.cycles.count) {
                    return a.cycles.count > b.cycles.count;
                  }
                  if (a.cycles.length != b.cycles.length) {
                    return a.cycles.length < b.cycles.length;
                  }
                  return a.vertex < b.vertex;
                });
      if (expected.size() > top_k) expected.resize(top_k);
      EXPECT_EQ(sharded.Screen(max_len, top_k), expected)
          << "max_len=" << max_len << " top_k=" << top_k;
    }
  }
}

TEST(ShardedEngineTest, MultiShardEnvelopeRoundTrip) {
  DiGraph graph = RandomGraph(40, 2.0, 5);
  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 3;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  std::vector<CycleCount> expected = engine.QueryAll();

  std::string bytes;
  ASSERT_TRUE(engine.SaveTo(bytes));
  ASSERT_TRUE(IsShardedPayload(bytes));

  // A loader configured for a different shard count adopts the bundle's.
  ShardedEngineOptions load_options;
  load_options.backend = "frozen";
  load_options.num_shards = 1;
  ShardedEngine loaded(load_options);
  ASSERT_TRUE(loaded.LoadFrom(bytes));
  EXPECT_EQ(loaded.num_shards(), 3u);
  EXPECT_EQ(loaded.num_vertices(), engine.num_vertices());
  EXPECT_EQ(loaded.QueryAll(), expected);

  // Static updates are unavailable after LoadFrom (no graph retained) —
  // exactly like Engine::LoadFrom.
  EXPECT_EQ(loaded.ApplyUpdates({EdgeUpdate::Insert(0, 1)}), 0u);
}

TEST(ShardedEngineTest, CorruptedShardPayloadIsRejected) {
  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 2;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.Build(RandomGraph(30, 2.0, 8)));
  std::string bytes;
  ASSERT_TRUE(engine.SaveTo(bytes));

  std::string error;
  ASSERT_TRUE(ParseShardedPayload(bytes, &error)) << error;

  // Flip one byte inside the second half (some shard payload): the
  // per-shard CRC pinpoints it.
  std::string corrupted = bytes;
  corrupted[corrupted.size() / 2] ^= 0x40;
  EXPECT_FALSE(ParseShardedPayload(corrupted, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
  ShardedEngine reloaded(options);
  EXPECT_FALSE(reloaded.LoadFrom(corrupted));

  // Truncation and foreign bytes are rejected, not half-loaded.
  EXPECT_FALSE(ParseShardedPayload(bytes.substr(0, bytes.size() - 3), &error));
  EXPECT_FALSE(IsShardedPayload("not an envelope"));
  EXPECT_FALSE(ParseShardedPayload("not an envelope", &error));

  // A crafted header declaring 2^32-1 shards is rejected by the size bound
  // before any allocation sized by the attacker-controlled count.
  std::string crafted = bytes.substr(0, 8);
  crafted.append("\xff\xff\xff\xff", 4);  // shard count
  crafted.append(8, '\0');                // num_vertices + flags
  EXPECT_FALSE(ParseShardedPayload(crafted, &error));
  EXPECT_NE(error.find("more shards"), std::string::npos) << error;
}

TEST(ShardedEngineTest, UnknownBackendIsInvalid) {
  ShardedEngineOptions options;
  options.backend = "no-such-backend";
  options.num_shards = 2;
  ShardedEngine engine(options);
  EXPECT_FALSE(engine.valid());
  EXPECT_FALSE(engine.Build(Figure2Graph()));
}

TEST(ShardedEngineTest, OwnershipStatsAccountEveryEdgeOnce) {
  DiGraph graph = RandomGraph(50, 2.5, 12);
  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 4;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  uint64_t internal = 0, cross = 0;
  for (const ShardInfo& info : engine.Stats()) {
    internal += info.internal_edges;
    cross += info.cross_shard_edges;
  }
  // Every edge is accounted exactly once, on the shard owning its source.
  EXPECT_EQ(internal + cross, graph.num_edges());
  EXPECT_GT(cross, 0u);  // 4 contiguous ranges on a random graph must mix
}

// --- Shard-local label slicing (slice_labels): per-shard storage drops to
// the owned runs while every answer stays bit-identical. ---

class ShardedSliceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedSliceTest, SlicedShardsStayBitIdentical) {
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(80, 2.5, 41);
  EngineOptions single_options;
  single_options.backend = backend;
  Engine single(single_options);
  ASSERT_TRUE(single.Build(graph));
  std::vector<CycleCount> expected = single.QueryAll();
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(backend + " shards=" + std::to_string(shards));
    ShardedEngineOptions options;
    options.backend = backend;
    options.num_shards = shards;
    options.slice_labels = true;
    ShardedEngine sharded(options);
    ASSERT_TRUE(sharded.Build(graph));
    EXPECT_EQ(sharded.QueryAll(), expected);
    ExpectSameGirth(single.Girth(), sharded.Girth(), "sliced girth");
    // Reference screening ranking straight from the single-engine answers.
    std::vector<ScreeningHit> hits;
    for (Vertex v = 0; v < expected.size(); ++v) {
      if (expected[v].count == 0 || expected[v].length > 12) continue;
      hits.push_back({v, expected[v]});
    }
    std::sort(hits.begin(), hits.end(), ScreeningHitBefore);
    if (hits.size() > 10) hits.resize(10);
    EXPECT_EQ(sharded.Screen(12, 10), hits);
    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
      EXPECT_EQ(sharded.Query(v), expected[v]) << "vertex " << v;
    }
  }
}

TEST_P(ShardedSliceTest, SlicedShardsSurviveUpdateRebuilds) {
  // Static backends rebuild per shard on updates; the rebuilt index must be
  // re-sliced automatically and stay conformant.
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(60, 2.5, 43);
  EngineOptions single_options;
  single_options.backend = backend;
  Engine single(single_options);
  ASSERT_TRUE(single.Build(graph));
  ShardedEngineOptions options;
  options.backend = backend;
  options.num_shards = 3;
  options.slice_labels = true;
  ShardedEngine sharded(options);
  ASSERT_TRUE(sharded.Build(graph));
  std::vector<EdgeUpdate> updates = {
      EdgeUpdate::Insert(3, 17), EdgeUpdate::Insert(29, 4),
      EdgeUpdate::Remove(3, 17), EdgeUpdate::Insert(55, 8)};
  size_t single_applied = single.ApplyUpdates(updates);
  EXPECT_EQ(sharded.ApplyUpdates(updates), single_applied);
  EXPECT_EQ(sharded.QueryAll(), single.QueryAll());
}

TEST_P(ShardedSliceTest, SlicedBundlePersistsAndLoadsThroughBothPaths) {
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(50, 2.5, 47);
  ShardedEngineOptions options;
  options.backend = backend;
  options.num_shards = 3;
  options.slice_labels = true;
  ShardedEngine built(options);
  ASSERT_TRUE(built.Build(graph));
  std::vector<CycleCount> expected = built.QueryAll();
  std::string payload;
  ASSERT_TRUE(built.SaveTo(payload));

  ShardedEngine reloaded(options);
  ASSERT_TRUE(reloaded.LoadFrom(payload));
  EXPECT_EQ(reloaded.QueryAll(), expected);

  const std::string path =
      ::testing::TempDir() + "csc_sliced_bundle_" + backend + ".idx";
  ASSERT_TRUE(SavePayloadToFile(payload, path));
  ShardedEngine mapped(options);
  std::string error;
  ASSERT_TRUE(mapped.LoadFromFile(path, &error)) << error;
  std::remove(path.c_str());
  EXPECT_EQ(mapped.QueryAll(), expected);
}

TEST_P(ShardedSliceTest, SlicedBundleRejectsMismatchedPartition) {
  // A bundle saved from sliced shards only answers correctly under the
  // partition it was sliced with; a mismatched reload must fail loudly
  // instead of serving re-homed vertices as "no cycle".
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(50, 2.5, 49);
  ShardedEngineOptions options;
  options.backend = backend;
  options.num_shards = 3;
  options.slice_labels = true;
  ShardedEngine built(options);
  ASSERT_TRUE(built.Build(graph));
  std::string payload;
  ASSERT_TRUE(built.SaveTo(payload));

  // Explicitly configured shard count != the bundle's K.
  ShardedEngineOptions wrong_k = options;
  wrong_k.num_shards = 2;
  ShardedEngine mismatched(wrong_k);
  std::string error;
  EXPECT_FALSE(mismatched.LoadFrom(payload, &error));
  EXPECT_NE(error.find("sliced"), std::string::npos) << error;

  // Default (unconfigured) shard count adopts the bundle's K, as before.
  ShardedEngineOptions adopt = options;
  adopt.num_shards = 1;
  ShardedEngine adopted(adopt);
  ASSERT_TRUE(adopted.LoadFrom(payload, &error)) << error;
  EXPECT_EQ(adopted.num_shards(), 3u);
  EXPECT_EQ(adopted.QueryAll(), built.QueryAll());

  // A bundle sliced under a custom ShardFn must not load under the default
  // partitioner — this is exactly the silent-"no cycle" footgun.
  ShardedEngineOptions custom = options;
  custom.shard_fn = [](Vertex v, uint32_t shards, Vertex) {
    return v % shards;
  };
  ShardedEngine custom_built(custom);
  ASSERT_TRUE(custom_built.Build(graph));
  std::string custom_payload;
  ASSERT_TRUE(custom_built.SaveTo(custom_payload));
  ShardedEngine default_fn(options);
  EXPECT_FALSE(default_fn.LoadFrom(custom_payload, &error));
  EXPECT_NE(error.find("shard_fn"), std::string::npos) << error;
  // ...and vice versa; the file path reports the same rejection.
  const std::string path =
      ::testing::TempDir() + "csc_sliced_mismatch_" + backend + ".idx";
  ASSERT_TRUE(SavePayloadToFile(payload, path));
  ShardedEngine custom_loader(custom);
  EXPECT_FALSE(custom_loader.LoadFromFile(path, &error));
  std::remove(path.c_str());
  EXPECT_NE(error.find("shard_fn"), std::string::npos) << error;

  // Matching partition (same K, same fn presence) round-trips.
  ShardedEngine custom_reloaded(custom);
  ASSERT_TRUE(custom_reloaded.LoadFrom(custom_payload, &error)) << error;
  EXPECT_EQ(custom_reloaded.QueryAll(), custom_built.QueryAll());

  // Unsliced bundles keep the liberal adoption semantics under any K.
  ShardedEngineOptions unsliced = options;
  unsliced.slice_labels = false;
  ShardedEngine full(unsliced);
  ASSERT_TRUE(full.Build(graph));
  std::string full_payload;
  ASSERT_TRUE(full.SaveTo(full_payload));
  ShardedEngine full_loaded(wrong_k);
  ASSERT_TRUE(full_loaded.LoadFrom(full_payload, &error)) << error;
  EXPECT_EQ(full_loaded.num_shards(), 3u);
}

INSTANTIATE_TEST_SUITE_P(ArenaBackends, ShardedSliceTest,
                         ::testing::Values("frozen"),
                         [](const auto& info) { return info.param; });

// --- Async update pipeline conformance: after Drain(), an async engine's
// answers are bit-identical to the synchronous path for every backend and
// shard count. ---

class AsyncConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AsyncConformanceTest, AsyncMatchesSyncAfterDrain) {
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(50, 2.5, 61);
  // Two mixed batches: fresh inserts, a real delete, duplicates and a
  // cancelled pair, so the net-effect verdicts are exercised too.
  std::vector<std::vector<EdgeUpdate>> batches = {
      {EdgeUpdate::Insert(3, 27), EdgeUpdate::Insert(44, 9),
       EdgeUpdate::Insert(3, 27), EdgeUpdate::Remove(44, 9)},
      {EdgeUpdate::Insert(12, 40), EdgeUpdate::Remove(3, 27),
       EdgeUpdate::Insert(3, 27), EdgeUpdate::Insert(200, 0)},
  };
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(backend + " shards=" + std::to_string(shards));
    ShardedEngineOptions sync_options;
    sync_options.backend = backend;
    sync_options.num_shards = shards;
    ShardedEngine sync_engine(sync_options);
    ASSERT_TRUE(sync_engine.Build(graph));

    ShardedEngineOptions async_options = sync_options;
    async_options.async_updates = true;
    ShardedEngine async_engine(async_options);
    ASSERT_TRUE(async_engine.Build(graph));

    for (const std::vector<EdgeUpdate>& batch : batches) {
      size_t sync_applied = sync_engine.ApplyUpdates(batch);
      std::vector<uint64_t> epochs;
      size_t async_applied = async_engine.ApplyUpdates(batch, &epochs);
      EXPECT_EQ(async_applied, sync_applied);
      ASSERT_EQ(epochs.size(), shards);
      EXPECT_TRUE(async_engine.WaitForEpochs(epochs));
      EXPECT_EQ(async_engine.QueryAll(), sync_engine.QueryAll());
    }
    async_engine.Drain();
    EXPECT_EQ(async_engine.QueryAll(), sync_engine.QueryAll());
    ExpectSameGirth(sync_engine.Girth(), async_engine.Girth(), backend);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, AsyncConformanceTest,
                         ::testing::ValuesIn(AllBackendNames()),
                         [](const auto& info) { return info.param; });

TEST(ShardedSliceTest, PerShardMemoryDropsToOwnedShare) {
  // The acceptance bound: at K=4 with a balanced partition, each sliced
  // shard's resident footprint is at most ~(1/K + eps) of the unsliced
  // index, where eps covers the per-vertex fixed tables every shard keeps
  // (offsets + couple-rank map) plus partition imbalance.
  DiGraph graph = GeneratePreferentialAttachment(600, 3, 0.1, 51);
  const Vertex n = graph.num_vertices();
  EngineOptions single_options;
  single_options.backend = "frozen";
  Engine single(single_options);
  ASSERT_TRUE(single.Build(graph));
  const uint64_t full_bytes = single.MemoryBytes();
  const uint64_t full_entries = single.Stats().label_entries;

  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 4;
  options.slice_labels = true;
  // Modulo sharding spreads label mass evenly; contiguous ranges on a
  // power-law graph would concentrate the heavy early vertices.
  options.shard_fn = [](Vertex v, uint32_t shards, Vertex) {
    return v % shards;
  };
  ShardedEngine sharded(options);
  ASSERT_TRUE(sharded.Build(graph));

  // Exactness of the split: every label run lands on exactly one shard.
  uint64_t sliced_entries = 0;
  const uint64_t fixed_tables =
      2 * (static_cast<uint64_t>(n) + 1) * sizeof(uint64_t) +
      static_cast<uint64_t>(n) * sizeof(Rank);
  for (const ShardInfo& info : sharded.Stats()) {
    sliced_entries += info.backend.label_entries;
    EXPECT_LE(info.backend.memory_bytes,
              full_bytes / 4 + fixed_tables + full_bytes / 16)
        << "shard " << info.shard;
  }
  EXPECT_EQ(sliced_entries, full_entries);

  // And the answers are still bit-identical to the unsliced single engine.
  EXPECT_EQ(sharded.QueryAll(), single.QueryAll());
}

TEST(EngineSliceTest, SliceKeepDropsUnselectedVerticesOnly) {
  DiGraph graph = RandomGraph(40, 2.5, 53);
  EngineOptions full_options;
  full_options.backend = "frozen";
  Engine full(full_options);
  ASSERT_TRUE(full.Build(graph));

  EngineOptions sliced_options = full_options;
  sliced_options.slice_keep = [](Vertex v) { return v < 20; };
  Engine sliced(sliced_options);
  ASSERT_TRUE(sliced.Build(graph));
  EXPECT_LT(sliced.MemoryBytes(), full.MemoryBytes());
  for (Vertex v = 0; v < 20; ++v) {
    EXPECT_EQ(sliced.Query(v), full.Query(v)) << "kept vertex " << v;
  }
  for (Vertex v = 20; v < 40; ++v) {
    EXPECT_EQ(sliced.Query(v), CycleCount{}) << "dropped vertex " << v;
  }
}

}  // namespace
}  // namespace csc
