#include "csc/compact_index.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
#include "csc/frozen_index.h"
#include "tests/test_util.h"

namespace csc {
namespace {

TEST(CompactIndexTest, QueriesMatchFullIndex) {
  DiGraph g = RandomGraph(80, 2.5, 3);
  CscIndex full = CscIndex::Build(g, DegreeOrdering(g));
  FrozenIndex served = FrozenIndex::FromCompact(CompactIndex::FromIndex(full));
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(served.Query(v), full.Query(v)) << "vertex " << v;
  }
}

TEST(CompactIndexTest, HalvesTheEntryCountRoughly) {
  DiGraph g = RandomGraph(100, 3.0, 5);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  CompactIndex compact = CompactIndex::FromIndex(index);
  // The index stores exactly the served sets; the full labeling is about
  // twice their size.
  EXPECT_EQ(compact.TotalEntries(), index.TotalEntries());
  EXPECT_LT(compact.TotalEntries(),
            compact.ExpandToFull().TotalEntries() * 6 / 10);
  EXPECT_GT(compact.TotalEntries(), 0u);
}

// Checks that `expanded` keeps `index`'s two stored sets as its L_in(v_i)
// and L_out(v_o) and counts what construction counted.
void ExpectExpandsStoredSets(const CscIndex& index,
                             const HubLabeling& expanded) {
  const HubLabeling& stored = index.served_labels();
  ASSERT_EQ(expanded.num_vertices(), 2 * stored.num_vertices());
  for (Vertex v = 0; v < stored.num_vertices(); ++v) {
    ASSERT_EQ(expanded.in[InVertex(v)], stored.in[v]) << "vertex " << v;
    ASSERT_EQ(expanded.out[OutVertex(v)], stored.out[v]) << "vertex " << v;
  }
  // The build stats count every entry of the full labeling.
  EXPECT_EQ(expanded.TotalEntries(), index.build_stats().entries);
}

TEST(CompactIndexTest, ExpandToFullReconstructsExactLabeling) {
  // §IV.E round trip: compact then expand keeps the stored sets and adds
  // the couple copies. The pinned four-set CRCs in
  // build_output_pinned_test.cc hold the derived sets to what a four-set
  // construction wrote.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    DiGraph g = RandomGraph(60, 2.5, seed);
    CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
    CompactIndex compact = CompactIndex::FromIndex(index);
    ExpectExpandsStoredSets(index, compact.ExpandToFull());
  }
}

TEST(CompactIndexTest, ExpandFigure2) {
  DiGraph g = Figure2Graph();
  CscIndex index = CscIndex::Build(g, Figure2Ordering());
  ExpectExpandsStoredSets(index, CompactIndex::FromIndex(index).ExpandToFull());
}

TEST(CompactIndexTest, SerializeDeserializeRoundTrip) {
  DiGraph g = RandomGraph(70, 2.0, 9);
  CscIndex full = CscIndex::Build(g, DegreeOrdering(g));
  CompactIndex compact = CompactIndex::FromIndex(full);
  std::string bytes = compact.Serialize();
  auto back = CompactIndex::Deserialize(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, compact);
  FrozenIndex served = FrozenIndex::FromCompact(*back);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(served.Query(v), full.Query(v));
  }
}

TEST(CompactIndexTest, DeserializeRejectsCorruptInput) {
  DiGraph g = RandomGraph(30, 2.0, 11);
  CompactIndex compact =
      CompactIndex::FromIndex(CscIndex::Build(g, DegreeOrdering(g)));
  std::string bytes = compact.Serialize();
  EXPECT_FALSE(CompactIndex::Deserialize("").has_value());
  EXPECT_FALSE(CompactIndex::Deserialize("JUNK").has_value());
  EXPECT_FALSE(
      CompactIndex::Deserialize(bytes.substr(0, bytes.size() / 2)).has_value());
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_FALSE(CompactIndex::Deserialize(wrong_magic).has_value());
  std::string trailing = bytes + "x";
  EXPECT_FALSE(CompactIndex::Deserialize(trailing).has_value());
  // A bare header claiming more vertices than the payload can hold is
  // rejected before anything is sized from the claimed count.
  std::string header_only = bytes.substr(0, 8);
  const uint32_t huge_n = 0x7fffffff;
  header_only.append(reinterpret_cast<const char*>(&huge_n), 4);
  EXPECT_FALSE(CompactIndex::Deserialize(header_only).has_value());
}

TEST(CompactIndexTest, DeserializeRejectsCorruptPermutation) {
  DiGraph g = RandomGraph(20, 2.0, 13);
  CompactIndex compact =
      CompactIndex::FromIndex(CscIndex::Build(g, DegreeOrdering(g)));
  std::string bytes = compact.Serialize();
  // Duplicate the first permutation entry into the second slot.
  // Layout: magic(4) + version(4) + n(4) + perm entries...
  for (int i = 0; i < 4; ++i) bytes[16 + i] = bytes[12 + i];
  EXPECT_FALSE(CompactIndex::Deserialize(bytes).has_value());
}

TEST(CompactIndexTest, EmptyGraphSerializes) {
  DiGraph g;
  CompactIndex compact =
      CompactIndex::FromIndex(CscIndex::Build(g, DegreeOrdering(g)));
  auto back = CompactIndex::Deserialize(compact.Serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->num_original_vertices(), 0u);
}

TEST(CompactIndexTest, BuildMatchesCompactedFullBuild) {
  // FrozenIndex::Build freezes the two served label sets straight from
  // construction; the result must be indistinguishable from freezing the
  // compacted full build, and answer every vertex and edge query as the
  // full index does.
  std::vector<std::pair<std::string, DiGraph>> graphs = {
      {"figure2", Figure2Graph()}};
  for (uint64_t seed : {1u, 2u}) {
    graphs.push_back({"random seed " + std::to_string(seed),
                      RandomGraph(60, 2.5, seed)});
  }
  for (const auto& [name, g] : graphs) {
    for (Vertex reserve : {0u, 3u}) {
      CscIndex::Options options;
      options.reserve_vertices = reserve;
      VertexOrdering order = DegreeOrdering(g);
      CscIndex index = CscIndex::Build(g, order, options);
      CompactIndex compact = CompactIndex::FromIndex(index);
      Vertex n = compact.num_original_vertices();
      ASSERT_EQ(n, g.num_vertices() + reserve) << name;
      FrozenIndex served = FrozenIndex::Build(g, order, options);
      ASSERT_EQ(served, FrozenIndex::FromCompact(compact))
          << name << " reserve=" << reserve;
      for (Vertex u = 0; u < n; ++u) {
        EXPECT_EQ(served.Query(u), index.Query(u)) << name << " " << u;
        for (Vertex v = 0; v < n; ++v) {
          EXPECT_EQ(served.QueryThroughEdge(u, v),
                    index.QueryThroughEdge(u, v))
              << name << " (" << u << ", " << v << ")";
        }
      }
    }
  }
}

// Degenerate shapes for the served build: at every thread count the
// stored sets must be the sequential build's, the freeze from the label
// store must equal the copying freeze of the sequential compacted full
// build, and the served answers must be BFS's. Reserved vertices are
// isolated, so they answer "no cycle".
struct EdgeCaseGraph {
  std::string name;
  DiGraph graph;
  bool acyclic;
};

std::vector<EdgeCaseGraph> EdgeCaseGraphs() {
  return {
      {"empty", DiGraph(), true},
      {"one vertex", DiGraph(1), true},
      {"acyclic", DiGraph::FromEdges(6, {{0, 1}, {0, 2}, {1, 3}, {2, 3},
                                         {3, 4}, {5, 4}}),
       true},
      {"two disjoint cycles",
       DiGraph::FromEdges(7, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5},
                              {5, 6}, {6, 3}}),
       false},
      {"isolated vertices",
       DiGraph::FromEdges(8, {{1, 4}, {4, 6}, {6, 1}, {4, 1}}), false},
  };
}

TEST(CompactIndexEdgeCaseTest, BuildMatchesFullBuildAndBfs) {
  for (const EdgeCaseGraph& g : EdgeCaseGraphs()) {
    VertexOrdering order = DegreeOrdering(g.graph);
    for (Vertex reserve : {0u, 3u}) {
      CscIndex::Options sequential_options;
      sequential_options.reserve_vertices = reserve;
      const CompactIndex compact = CompactIndex::FromIndex(
          CscIndex::Build(g.graph, order, sequential_options));
      for (unsigned threads : {0u, 1u, 4u}) {
        const std::string context = g.name + " reserve=" +
                                    std::to_string(reserve) +
                                    " build_threads=" + std::to_string(threads);
        CscIndex::Options options = sequential_options;
        options.build_threads = threads;
        ASSERT_EQ(CompactIndex::FromIndex(
                      CscIndex::Build(g.graph, order, options)),
                  compact)
            << context;
        const Vertex n = g.graph.num_vertices();
        ASSERT_EQ(compact.num_original_vertices(), n + reserve) << context;
        FrozenIndex served = FrozenIndex::Build(g.graph, order, options);
        EXPECT_EQ(served, FrozenIndex::FromCompact(compact)) << context;
        for (Vertex v = 0; v < n; ++v) {
          CycleCount expected = BfsCountCycles(g.graph, v);
          if (g.acyclic) {
            EXPECT_EQ(expected, CycleCount{}) << context;
          }
          EXPECT_EQ(served.Query(v), expected) << context << " v=" << v;
        }
        for (Vertex v = n; v < n + reserve; ++v) {
          EXPECT_EQ(served.Query(v), CycleCount{}) << context << " v=" << v;
        }
      }
    }
  }
}

TEST(CompactIndexTest, StoreFreezeMatchesCopying) {
  // FlatBackend freezes straight from the construction label store, owner
  // by owner and one direction at a time; the arenas must be the copying
  // freeze's of the same build's stored sets.
  for (uint64_t seed : {3u, 4u}) {
    DiGraph g = RandomGraph(80, 3.0, seed);
    CscIndex::Options options;
    options.build_threads = 2;
    CompactIndex compact = CompactIndex::FromIndex(
        CscIndex::Build(g, DegreeOrdering(g), options));
    EXPECT_EQ(FrozenIndex::Build(g, DegreeOrdering(g), options),
              FrozenIndex::FromCompact(compact))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace csc
