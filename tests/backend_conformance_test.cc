// Backend conformance: every CycleIndex implementation must answer the same
// query/update scenario identically (the BFS baseline recomputed from
// scratch is the ground truth). New backends get this coverage for free by
// registering in AllBackendNames().
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/bfs_cycle.h"
#include "core/cycle_index.h"
#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "csc/girth.h"
#include "graph/digraph.h"
#include "graph/ordering.h"
#include "tests/test_util.h"

namespace csc {
namespace {

class BackendConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<CycleIndex> Make() {
    std::unique_ptr<CycleIndex> backend = MakeBackend(GetParam());
    EXPECT_NE(backend, nullptr) << "unregistered backend " << GetParam();
    return backend;
  }

  static void ExpectMatchesBfs(CycleIndex& backend, const DiGraph& graph,
                               const char* when) {
    ASSERT_EQ(backend.num_vertices(), graph.num_vertices()) << when;
    BfsCycleCounter reference(graph);
    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
      EXPECT_EQ(backend.CountShortestCycles(v), reference.CountCycles(v))
          << when << ": backend " << backend.name() << ", vertex " << v;
    }
  }
};

TEST_P(BackendConformanceTest, RegistryNameMatches) {
  auto backend = Make();
  EXPECT_EQ(backend->name(), GetParam());
  BackendStats stats = backend->Stats();
  EXPECT_EQ(stats.name, GetParam());
  EXPECT_EQ(stats.supports_save, backend->supports_save());
}

TEST_P(BackendConformanceTest, AnswersMatchBfsOnFigure2) {
  auto backend = Make();
  DiGraph graph = Figure2Graph();
  backend->Build(graph);
  ExpectMatchesBfs(*backend, graph, "figure2");
  // The paper's worked example: SCCnt(v7) = 3 shortest cycles of length 6.
  CycleCount v7 = backend->CountShortestCycles(6);
  EXPECT_EQ(v7.count, 3u);
  EXPECT_EQ(v7.length, 6u);
  // Out-of-range queries are empty answers, not crashes.
  EXPECT_EQ(backend->CountShortestCycles(10), CycleCount{});
  EXPECT_EQ(backend->CountShortestCycles(kNoVertex), CycleCount{});
}

TEST_P(BackendConformanceTest, AnswersMatchBfsOnRandomGraphs) {
  auto backend = Make();
  for (uint64_t seed : {1u, 2u}) {
    DiGraph graph = RandomGraph(60, 2.5, seed);
    backend->Build(graph);
    ExpectMatchesBfs(*backend, graph, "random");
  }
}

TEST_P(BackendConformanceTest, GirthMatchesSweep) {
  auto backend = Make();
  DiGraph graph = RandomGraph(50, 2.0, 42);
  backend->Build(graph);
  BfsCycleCounter reference(graph);
  GirthInfo expected = ComputeGirth(
      graph.num_vertices(), [&](Vertex v) { return reference.CountCycles(v); });
  GirthInfo actual = backend->Girth();
  EXPECT_EQ(actual.girth, expected.girth);
  EXPECT_EQ(actual.num_girth_vertices, expected.num_girth_vertices);
  EXPECT_EQ(actual.example_vertex, expected.example_vertex);
}

// The shared update scenario: close a 2-cycle, retract it, then grow a new
// cycle elsewhere. A backend never mutates once built (the serving Engine
// lands writes as new snapshots), so each step rebuilds and must answer
// like BFS on the updated graph.
TEST_P(BackendConformanceTest, SharedUpdateScenario) {
  auto backend = Make();
  DiGraph graph = Figure2Graph();
  backend->Build(graph);

  const std::vector<std::pair<bool, Edge>> scenario = {
      {true, {7, 6}},   // insert: closes a 2-cycle at the paper's v7/v8
      {false, {7, 6}},  // remove it again
      {true, {6, 0}},   // insert: a shortcut creating shorter cycles
      {false, {0, 2}},  // remove an original edge
  };

  for (const auto& [insert, edge] : scenario) {
    bool ok = insert ? graph.AddEdge(edge.from, edge.to)
                     : graph.RemoveEdge(edge.from, edge.to);
    ASSERT_TRUE(ok);
    backend->Build(graph);
    ExpectMatchesBfs(*backend, graph, "after rebuild");
  }
}

TEST_P(BackendConformanceTest, SaveLoadRoundTripsThroughInterface) {
  auto backend = Make();
  DiGraph graph = RandomGraph(40, 2.0, 9);
  backend->Build(graph);
  std::string bytes;
  if (!backend->SaveTo(bytes)) {
    EXPECT_FALSE(backend->supports_save());
    return;
  }
  EXPECT_TRUE(backend->supports_save());
  // Every saving backend round-trips its own arena payload. "csc" and
  // "frozen" save the same packed arena, so each also loads the other's.
  BfsCycleCounter reference(graph);
  for (const char* loader : {"csc", "frozen"}) {
    auto loaded = MakeBackend(loader);
    ASSERT_TRUE(loaded->LoadFrom(bytes))
        << backend->name() << " payload into " << loader;
    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
      EXPECT_EQ(loaded->CountShortestCycles(v), reference.CountCycles(v))
          << loader << " vertex " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendConformanceTest,
                         ::testing::ValuesIn(AllBackendNames()),
                         [](const auto& info) { return info.param; });

// The compact §IV.E payload is the interchange format: every CSC backend
// loads it.
TEST(BackendInterchangeTest, CompactPayloadLoadsIntoEveryCscBackend) {
  DiGraph graph = RandomGraph(40, 2.0, 9);
  const std::string bytes =
      CompactIndex::FromIndex(CscIndex::Build(graph, DegreeOrdering(graph)))
          .Serialize();
  BfsCycleCounter reference(graph);
  for (const char* loader : {"csc", "frozen"}) {
    auto loaded = MakeBackend(loader);
    ASSERT_TRUE(loaded->LoadFrom(bytes)) << loader;
    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
      EXPECT_EQ(loaded->CountShortestCycles(v), reference.CountCycles(v))
          << loader << " vertex " << v;
    }
  }
}

TEST(BackendRegistryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(MakeBackend("no-such-backend"), nullptr);
  EXPECT_EQ(MakeBackend(""), nullptr);
  // "csc" serves the §IV.E reduction; there is no "compact" name.
  EXPECT_EQ(MakeBackend("compact"), nullptr);
}

TEST(BackendRegistryTest, DefaultBackendIsRegistered) {
  EXPECT_NE(MakeBackend(kDefaultBackendName), nullptr);
}

}  // namespace
}  // namespace csc
