#include "csc/frozen_index.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
#include "core/cycle_index.h"
#include "csc/index_io.h"
#include "dynamic/decremental.h"
#include "dynamic/incremental.h"
#include "graph/generators.h"
#include "tests/test_util.h"
#include "workload/update_workload.h"

namespace csc {
namespace {

TEST(FrozenIndexTest, EmptyGraph) {
  FrozenIndex frozen = FrozenIndex::FromIndex(
      CscIndex::Build(DiGraph(), DegreeOrdering(DiGraph())));
  EXPECT_EQ(frozen.num_original_vertices(), 0u);
  EXPECT_EQ(frozen.TotalEntries(), 0u);
  EXPECT_EQ(frozen.SizeBytes(), 0u);
}

TEST(FrozenIndexTest, MatchesPaperExample) {
  FrozenIndex frozen = FrozenIndex::FromIndex(
      CscIndex::Build(Figure2Graph(), Figure2Ordering()));
  // Example 1 / Example 6: SCCnt(v7) = 3 with length 6 (v7 is id 6).
  EXPECT_EQ(frozen.Query(6), (CycleCount{6, 3}));
}

TEST(FrozenIndexTest, QueriesMatchLiveIndex) {
  std::vector<DiGraph> graphs;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    graphs.push_back(RandomGraph(80, 2.5, seed));
  }
  for (uint64_t seed = 5; seed < 13; ++seed) {
    graphs.push_back(RandomGraph(70, 2.5, seed));
  }
  for (size_t i = 0; i < graphs.size(); ++i) {
    CscIndex live = CscIndex::Build(graphs[i], DegreeOrdering(graphs[i]));
    FrozenIndex frozen = FrozenIndex::FromIndex(live);
    for (Vertex v = 0; v < graphs[i].num_vertices(); ++v) {
      ASSERT_EQ(frozen.Query(v), live.Query(v))
          << "graph " << i << " vertex " << v;
    }
  }
}

TEST(FrozenIndexTest, MatchesBfsGroundTruth) {
  DiGraph g = RandomGraph(60, 3.0, 42);
  FrozenIndex frozen =
      FrozenIndex::FromIndex(CscIndex::Build(g, DegreeOrdering(g)));
  BfsCycleCounter bfs(g);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(frozen.Query(v), bfs.CountCycles(v)) << "vertex " << v;
  }
}

TEST(FrozenIndexTest, EntryCountMatchesCompactForm) {
  DiGraph g = RandomGraph(80, 3.0, 42);
  CompactIndex compact =
      CompactIndex::FromIndex(CscIndex::Build(g, DegreeOrdering(g)));
  FrozenIndex frozen = FrozenIndex::FromCompact(compact);
  EXPECT_EQ(frozen.TotalEntries(), compact.TotalEntries());
  EXPECT_EQ(frozen.num_original_vertices(), compact.num_original_vertices());
  EXPECT_EQ(frozen.SizeBytes(), compact.SizeBytes());
  EXPECT_EQ(frozen.SizeBytes(), 8 * frozen.TotalEntries());
}

TEST(FrozenIndexTest, HandlesVerticesWithNoCycles) {
  DiGraph dag(5);
  dag.AddEdge(0, 1);
  dag.AddEdge(1, 2);
  dag.AddEdge(2, 3);
  dag.AddEdge(3, 4);
  FrozenIndex frozen =
      FrozenIndex::FromIndex(CscIndex::Build(dag, DegreeOrdering(dag)));
  for (Vertex v = 0; v < 5; ++v) {
    EXPECT_EQ(frozen.Query(v), (CycleCount{kInfDist, 0}));
  }
}

TEST(FrozenIndexTest, OutOfRange) {
  DiGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  FrozenIndex frozen =
      FrozenIndex::FromIndex(CscIndex::Build(g, DegreeOrdering(g)));
  EXPECT_EQ(frozen.Query(99), (CycleCount{kInfDist, 0}));
  EXPECT_EQ(frozen.QueryThroughEdge(0, 99), (CycleCount{kInfDist, 0}));
  EXPECT_EQ(frozen.Query(0), (CycleCount{2, 1}));
}

TEST(FrozenIndexTest, SurvivesSerializationRoundTrip) {
  DiGraph g = RandomGraph(40, 2.5, 13);
  CscIndex live = CscIndex::Build(g, DegreeOrdering(g));
  // Through the compact interchange payload...
  auto reloaded =
      CompactIndex::Deserialize(CompactIndex::FromIndex(live).Serialize());
  ASSERT_TRUE(reloaded.has_value());
  FrozenIndex frozen = FrozenIndex::FromCompact(*reloaded);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(frozen.Query(v), live.Query(v));
  }
  // ...and through the native payload.
  std::string bytes = frozen.Serialize();
  EXPECT_EQ(bytes.substr(0, 4), "CSCF");
  std::optional<FrozenIndex> native = FrozenIndex::Deserialize(bytes);
  ASSERT_TRUE(native.has_value());
  EXPECT_EQ(*native, frozen);
  std::optional<FrozenIndex> view = FrozenIndex::FromView(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(), nullptr);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(*view, frozen);
}

TEST(FrozenIndexPayloadTest, DefaultIsEmpty) {
  FrozenIndex empty;
  EXPECT_EQ(empty.num_original_vertices(), 0u);
  EXPECT_EQ(empty.Query(0), (CycleCount{kInfDist, 0}));
}

// Every load path must reject a payload of the retired varint encoding: the
// CSCZ magic, or an arena whose encoding byte is 1. Through the backends
// (from a file and from a mapping) the rejection is a typed load error.
void ExpectRejected(const std::string& bytes, const char* what) {
  EXPECT_FALSE(FrozenIndex::Deserialize(bytes).has_value()) << what;
  auto keep_alive = std::make_shared<const std::string>(bytes);
  EXPECT_FALSE(FrozenIndex::FromView(
                   reinterpret_cast<const uint8_t*>(keep_alive->data()),
                   keep_alive->size(), keep_alive)
                   .has_value())
      << what;
  const std::string path =
      ::testing::TempDir() + "csc_frozen_rejected_payload.idx";
  ASSERT_TRUE(SavePayloadToFile(bytes, path)) << what;
  for (const char* backend : {"csc", "frozen"}) {
    EXPECT_FALSE(MakeBackend(backend)->LoadFrom(bytes)) << what << backend;
    BackendLoadResult from_file = LoadBackendFromFile(path, backend);
    EXPECT_FALSE(from_file.ok()) << what << backend;
    EXPECT_FALSE(from_file.error.empty()) << what << backend;
    std::string error;
    std::shared_ptr<IndexFile> mapping = IndexFile::Open(path, &error);
    ASSERT_NE(mapping, nullptr) << error;
    BackendLoadResult from_mapping = LoadBackendFromMapping(mapping, backend);
    EXPECT_FALSE(from_mapping.ok()) << what << backend;
    EXPECT_FALSE(from_mapping.error.empty()) << what << backend;
  }
  std::remove(path.c_str());
}

TEST(FrozenIndexPayloadTest, RejectsEncodingThatDisagreesWithMagic) {
  DiGraph g = RandomGraph(30, 2.5, 21);
  FrozenIndex frozen =
      FrozenIndex::FromIndex(CscIndex::Build(g, DegreeOrdering(g)));
  const std::string bytes = frozen.Serialize();
  ASSERT_TRUE(FrozenIndex::Deserialize(bytes).has_value());
  // Wire offsets of the two arenas' encoding bytes.
  std::string in_arena;
  frozen.in_arena().AppendTo(in_arena);
  const size_t in_encoding = 4;
  const size_t out_encoding = 4 + in_arena.size();
  ASSERT_EQ(bytes[in_encoding], 0);
  ASSERT_EQ(bytes[out_encoding], 0);

  std::string in_varint = bytes;
  in_varint[in_encoding] = 1;
  ExpectRejected(in_varint, "CSCF magic, in arena encoding byte 1");

  std::string out_varint = bytes;
  out_varint[out_encoding] = 1;
  ExpectRejected(out_varint, "CSCF magic, out arena encoding byte 1");

  std::string cscz = bytes;
  std::memcpy(cscz.data(), "CSCZ", 4);
  cscz[in_encoding] = 1;
  cscz[out_encoding] = 1;
  ExpectRejected(cscz, "CSCZ magic, encoding bytes 1");

  std::string cscz_packed = bytes;
  std::memcpy(cscz_packed.data(), "CSCZ", 4);
  ExpectRejected(cscz_packed, "CSCZ magic, packed arenas");

  // The varint backend's name is gone from the registry.
  EXPECT_EQ(MakeBackend("compressed"), nullptr);
  EXPECT_FALSE(IsRegisteredBackend("compressed"));
}

// The shadows a derive adopts: a fresh sequential build, and one built by
// the parallel builder with reserved vertices, then maintained: InsertEdge
// attaches the reserved vertices and RemoveEdge drops original edges.
std::vector<CscIndex> DeriveShadows() {
  std::vector<CscIndex> shadows;
  const Vertex n = 60;
  DiGraph g = RandomGraph(n, 2.5, 5);
  shadows.push_back(CscIndex::Build(g, DegreeOrdering(g)));
  CscIndex::Options options;
  options.reserve_vertices = 3;
  options.build_threads = 2;
  CscIndex maintained = CscIndex::Build(g, DegreeOrdering(g), options);
  for (const Edge& e : {Edge{0, n}, Edge{n, 1}, Edge{n + 1, n},
                        Edge{3, n + 1}}) {
    EXPECT_TRUE(InsertEdge(maintained, e.from, e.to,
                           MaintenanceStrategy::kMinimality));
  }
  for (const Edge& e : SampleExistingEdges(g, 4, 6)) {
    EXPECT_TRUE(RemoveEdge(maintained, e.from, e.to));
  }
  shadows.push_back(std::move(maintained));
  return shadows;
}

TEST(ShadowDeriveTest, FromIndexEqualsFreezingTheCompactCopy) {
  for (const CscIndex& shadow : DeriveShadows()) {
    EXPECT_EQ(FrozenIndex::FromIndex(shadow),
              FrozenIndex::FromCompact(CompactIndex::FromIndex(shadow)));
  }
}

TEST(ShadowDeriveTest, DeriveFromSavesTheBytesOfACompactPayloadLoad) {
  for (const CscIndex& shadow : DeriveShadows()) {
    const std::string compact = CompactIndex::FromIndex(shadow).Serialize();
    for (const char* name : {"csc", "frozen"}) {
      SCOPED_TRACE(name);
      std::unique_ptr<CycleIndex> derived = MakeBackend(name);
      std::unique_ptr<CycleIndex> loaded = MakeBackend(name);
      ASSERT_TRUE(derived->DeriveFrom(shadow));
      ASSERT_TRUE(loaded->LoadFrom(compact));
      std::string derived_bytes;
      std::string loaded_bytes;
      ASSERT_TRUE(derived->SaveTo(derived_bytes));
      ASSERT_TRUE(loaded->SaveTo(loaded_bytes));
      EXPECT_EQ(derived_bytes, loaded_bytes);
      // The derived snapshot reports the shadow's construction as its build.
      EXPECT_EQ(derived->Stats().build_threads,
                shadow.build_stats().build_threads);
      EXPECT_GE(derived->Stats().build_seconds, shadow.build_stats().seconds);
    }
    // Backends that do not serve the CSC labeling decline.
    for (const char* name : {"bfs", "hpspc"}) {
      EXPECT_FALSE(MakeBackend(name)->DeriveFrom(shadow)) << name;
    }
  }
}

}  // namespace
}  // namespace csc
