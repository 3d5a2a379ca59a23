#include "graph/csr.h"

#include <vector>

#include <gtest/gtest.h>

#include "graph/digraph.h"
#include "tests/test_util.h"

namespace csc {
namespace {

TEST(CsrTest, EmptyGraph) {
  CsrGraph csr = CsrGraph::FromGraph(DiGraph());
  EXPECT_EQ(csr.num_vertices(), 0u);
  EXPECT_EQ(csr.num_edges(), 0u);
}

TEST(CsrTest, MirrorsAdjacencyOfSourceGraph) {
  DiGraph graph = Figure2Graph();
  CsrGraph csr = CsrGraph::FromGraph(graph);
  ASSERT_EQ(csr.num_vertices(), graph.num_vertices());
  ASSERT_EQ(csr.num_edges(), graph.num_edges());
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    std::span<const Vertex> out = csr.OutNeighbors(v);
    ASSERT_EQ(out.size(), graph.OutNeighbors(v).size());
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], graph.OutNeighbors(v)[i]);
    }
    std::span<const Vertex> in = csr.InNeighbors(v);
    ASSERT_EQ(in.size(), graph.InNeighbors(v).size());
    for (size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(in[i], graph.InNeighbors(v)[i]);
    }
    EXPECT_EQ(csr.OutDegree(v), graph.OutDegree(v));
    EXPECT_EQ(csr.InDegree(v), graph.InDegree(v));
    EXPECT_EQ(csr.Degree(v), graph.Degree(v));
  }
}

TEST(CsrTest, IsolatedVerticesHaveEmptySpans) {
  DiGraph graph(5);
  graph.AddEdge(0, 1);
  CsrGraph csr = CsrGraph::FromGraph(graph);
  EXPECT_TRUE(csr.OutNeighbors(2).empty());
  EXPECT_TRUE(csr.InNeighbors(4).empty());
  EXPECT_EQ(csr.OutNeighbors(0).size(), 1u);
}

TEST(CsrTest, SizeBytesAccountsAllArrays) {
  DiGraph graph = Figure2Graph();
  CsrGraph csr = CsrGraph::FromGraph(graph);
  // 2 offset arrays of (n+1) u64 + 2 target arrays of m u32.
  uint64_t expected = 2 * (graph.num_vertices() + 1) * sizeof(uint64_t) +
                      2 * graph.num_edges() * sizeof(Vertex);
  EXPECT_EQ(csr.SizeBytes(), expected);
}

TEST(CsrBfsTest, ForwardDistancesMatchHandComputed) {
  // 0 -> 1 -> 2, 0 -> 2, 3 isolated.
  DiGraph graph(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(0, 2);
  CsrGraph csr = CsrGraph::FromGraph(graph);
  std::vector<Dist> dist = CsrBfsDistances(csr, 0, /*forward=*/true);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 1u);
  EXPECT_EQ(dist[3], kInfDist);
}

TEST(CsrBfsTest, BackwardDistancesFollowInEdges) {
  DiGraph graph(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  CsrGraph csr = CsrGraph::FromGraph(graph);
  std::vector<Dist> dist = CsrBfsDistances(csr, 2, /*forward=*/false);
  EXPECT_EQ(dist[2], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[0], 2u);
}

}  // namespace
}  // namespace csc
