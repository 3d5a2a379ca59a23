#include "csc/frozen_index.h"

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
#include "core/cycle_index.h"
#include "dynamic/decremental.h"
#include "dynamic/incremental.h"
#include "graph/generators.h"
#include "tests/test_util.h"
#include "workload/update_workload.h"

namespace csc {
namespace {

// Every serving-form case runs over both arena encodings.
class FrozenIndexTest : public ::testing::TestWithParam<ArenaEncoding> {
 protected:
  FrozenIndex Freeze(const CscIndex& index) const {
    return FrozenIndex::FromIndex(index, GetParam());
  }
};

TEST_P(FrozenIndexTest, EmptyGraph) {
  FrozenIndex frozen =
      Freeze(CscIndex::Build(DiGraph(), DegreeOrdering(DiGraph())));
  EXPECT_EQ(frozen.encoding(), GetParam());
  EXPECT_EQ(frozen.num_original_vertices(), 0u);
  EXPECT_EQ(frozen.TotalEntries(), 0u);
  EXPECT_EQ(frozen.SizeBytes(), 0u);
  EXPECT_EQ(frozen.BytesPerEntry(), 0.0);
}

TEST_P(FrozenIndexTest, MatchesPaperExample) {
  FrozenIndex frozen =
      Freeze(CscIndex::Build(Figure2Graph(), Figure2Ordering()));
  // Example 1 / Example 6: SCCnt(v7) = 3 with length 6 (v7 is id 6).
  EXPECT_EQ(frozen.Query(6), (CycleCount{6, 3}));
}

TEST_P(FrozenIndexTest, QueriesMatchLiveIndex) {
  std::vector<DiGraph> graphs;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    graphs.push_back(RandomGraph(80, 2.5, seed));
  }
  for (uint64_t seed = 5; seed < 13; ++seed) {
    graphs.push_back(RandomGraph(70, 2.5, seed));
  }
  for (size_t i = 0; i < graphs.size(); ++i) {
    CscIndex live = CscIndex::Build(graphs[i], DegreeOrdering(graphs[i]));
    FrozenIndex frozen = Freeze(live);
    for (Vertex v = 0; v < graphs[i].num_vertices(); ++v) {
      ASSERT_EQ(frozen.Query(v), live.Query(v))
          << "graph " << i << " vertex " << v;
    }
  }
}

TEST_P(FrozenIndexTest, MatchesBfsGroundTruth) {
  DiGraph g = RandomGraph(60, 3.0, 42);
  FrozenIndex frozen = Freeze(CscIndex::Build(g, DegreeOrdering(g)));
  BfsCycleCounter bfs(g);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(frozen.Query(v), bfs.CountCycles(v)) << "vertex " << v;
  }
}

TEST_P(FrozenIndexTest, EntryCountMatchesCompactForm) {
  DiGraph g = RandomGraph(80, 3.0, 42);
  CompactIndex compact =
      CompactIndex::FromIndex(CscIndex::Build(g, DegreeOrdering(g)));
  FrozenIndex frozen = FrozenIndex::FromCompact(compact, GetParam());
  EXPECT_EQ(frozen.TotalEntries(), compact.TotalEntries());
  EXPECT_EQ(frozen.num_original_vertices(), compact.num_original_vertices());
  if (GetParam() == ArenaEncoding::kPacked) {
    EXPECT_EQ(frozen.SizeBytes(), compact.SizeBytes());
  }
}

TEST_P(FrozenIndexTest, CompressesBelowEightBytesPerEntry) {
  // On small-world graphs ranks/distances/counts are small, so the varint
  // stream must beat the fixed 8-byte packing — the varint encoding's
  // reason to exist; fail loudly if it regresses. Packed stays at 8.
  DiGraph graph = GenerateSmallWorld(2000, 3, 0.1, 9);
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  FrozenIndex frozen = Freeze(index);
  ASSERT_GT(frozen.TotalEntries(), 0u);
  if (GetParam() == ArenaEncoding::kPacked) {
    EXPECT_EQ(frozen.BytesPerEntry(), 8.0);
  } else {
    EXPECT_LT(frozen.BytesPerEntry(), 8.0);
    EXPECT_LT(frozen.SizeBytes(), FrozenIndex::FromIndex(index).SizeBytes());
  }
}

TEST_P(FrozenIndexTest, HandlesVerticesWithNoCycles) {
  DiGraph dag(5);
  dag.AddEdge(0, 1);
  dag.AddEdge(1, 2);
  dag.AddEdge(2, 3);
  dag.AddEdge(3, 4);
  FrozenIndex frozen = Freeze(CscIndex::Build(dag, DegreeOrdering(dag)));
  for (Vertex v = 0; v < 5; ++v) {
    EXPECT_EQ(frozen.Query(v), (CycleCount{kInfDist, 0}));
  }
}

TEST_P(FrozenIndexTest, OutOfRange) {
  DiGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  FrozenIndex frozen = Freeze(CscIndex::Build(g, DegreeOrdering(g)));
  EXPECT_EQ(frozen.Query(99), (CycleCount{kInfDist, 0}));
  EXPECT_EQ(frozen.QueryThroughEdge(0, 99), (CycleCount{kInfDist, 0}));
  EXPECT_EQ(frozen.Query(0), (CycleCount{2, 1}));
}

TEST_P(FrozenIndexTest, SurvivesSerializationRoundTrip) {
  DiGraph g = RandomGraph(40, 2.5, 13);
  CscIndex live = CscIndex::Build(g, DegreeOrdering(g));
  // Through the compact interchange payload...
  auto reloaded =
      CompactIndex::Deserialize(CompactIndex::FromIndex(live).Serialize());
  ASSERT_TRUE(reloaded.has_value());
  FrozenIndex frozen = FrozenIndex::FromCompact(*reloaded, GetParam());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(frozen.Query(v), live.Query(v));
  }
  // ...and through the native payload, whose magic names the encoding.
  std::string bytes = frozen.Serialize();
  EXPECT_EQ(bytes.substr(0, 4),
            GetParam() == ArenaEncoding::kPacked ? "CSCF" : "CSCZ");
  std::optional<FrozenIndex> native = FrozenIndex::Deserialize(bytes);
  ASSERT_TRUE(native.has_value());
  EXPECT_EQ(*native, frozen);
  std::optional<FrozenIndex> view = FrozenIndex::FromView(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(), nullptr);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(*view, frozen);
}

INSTANTIATE_TEST_SUITE_P(
    Encodings, FrozenIndexTest,
    ::testing::Values(ArenaEncoding::kPacked, ArenaEncoding::kVarint),
    [](const ::testing::TestParamInfo<ArenaEncoding>& info) {
      return info.param == ArenaEncoding::kPacked ? "Packed" : "Varint";
    });

TEST(FrozenIndexPayloadTest, DefaultIsEmpty) {
  FrozenIndex empty;
  EXPECT_EQ(empty.num_original_vertices(), 0u);
  EXPECT_EQ(empty.Query(0), (CycleCount{kInfDist, 0}));
}

// Both load paths must reject a payload whose arenas are not all in the
// encoding its magic names.
void ExpectRejected(const std::string& bytes, const char* what) {
  EXPECT_FALSE(FrozenIndex::Deserialize(bytes).has_value()) << what;
  auto keep_alive = std::make_shared<const std::string>(bytes);
  EXPECT_FALSE(FrozenIndex::FromView(
                   reinterpret_cast<const uint8_t*>(keep_alive->data()),
                   keep_alive->size(), keep_alive)
                   .has_value())
      << what;
}

TEST(FrozenIndexPayloadTest, RejectsEncodingThatDisagreesWithMagic) {
  DiGraph g = RandomGraph(30, 2.5, 21);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  FrozenIndex packed = FrozenIndex::FromIndex(index, ArenaEncoding::kPacked);
  FrozenIndex varint = FrozenIndex::FromIndex(index, ArenaEncoding::kVarint);
  const std::string packed_bytes = packed.Serialize();
  const std::string varint_bytes = varint.Serialize();
  ASSERT_TRUE(FrozenIndex::Deserialize(packed_bytes).has_value());
  ASSERT_TRUE(FrozenIndex::Deserialize(varint_bytes).has_value());

  std::string cscf_varint = varint_bytes;
  std::memcpy(cscf_varint.data(), "CSCF", 4);
  ExpectRejected(cscf_varint, "CSCF magic, varint arenas");

  std::string cscz_packed = packed_bytes;
  std::memcpy(cscz_packed.data(), "CSCZ", 4);
  ExpectRejected(cscz_packed, "CSCZ magic, packed arenas");

  // A packed in arena followed by a varint out arena, under either magic.
  const size_t ranks_bytes = sizeof(Rank) * g.num_vertices();
  for (const char* magic : {"CSCF", "CSCZ"}) {
    std::string mixed(magic, 4);
    packed.in_arena().AppendTo(mixed);
    varint.out_arena().AppendTo(mixed);
    mixed += packed_bytes.substr(packed_bytes.size() - ranks_bytes);
    ExpectRejected(mixed, magic);
  }
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
  options.maintain_inverted_index = true;
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
    for (ArenaEncoding e : {ArenaEncoding::kPacked, ArenaEncoding::kVarint}) {
      EXPECT_EQ(FrozenIndex::FromIndex(shadow, e),
                FrozenIndex::FromCompact(CompactIndex::FromIndex(shadow), e));
    }
  }
}

TEST(ShadowDeriveTest, DeriveFromSavesTheBytesOfACompactPayloadLoad) {
  for (const CscIndex& shadow : DeriveShadows()) {
    const std::string compact = CompactIndex::FromIndex(shadow).Serialize();
    for (const char* name : {"csc", "frozen", "compressed"}) {
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
