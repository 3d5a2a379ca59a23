// Property sweep for batch maintenance: random update sequences applied as
// (a) one ApplyUpdates batch, (b) sequential per-edge maintenance, and (c) a
// from-scratch rebuild must leave indistinguishable indexes (identical
// query answers everywhere), across strategies and rebuild thresholds.
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
#include "dynamic/batch.h"
#include "dynamic/decremental.h"
#include "dynamic/incremental.h"
#include "graph/ordering.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace csc {
namespace {

// A deterministic random update sequence: mixes removals of existing edges,
// inserts of fresh edges, duplicate ops, and invalid ops.
std::vector<EdgeUpdate> MakeUpdateSequence(const DiGraph& graph, size_t count,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges = graph.Edges();
  std::vector<EdgeUpdate> updates;
  for (size_t i = 0; i < count; ++i) {
    double roll = rng.NextDouble();
    if (roll < 0.35 && !edges.empty()) {
      const Edge& e = edges[rng.NextBounded(edges.size())];
      updates.push_back(EdgeUpdate::Remove(e.from, e.to));
    } else if (roll < 0.85) {
      Vertex u = static_cast<Vertex>(rng.NextBounded(graph.num_vertices()));
      Vertex v = static_cast<Vertex>(rng.NextBounded(graph.num_vertices()));
      updates.push_back(EdgeUpdate::Insert(u, v));  // may be loop/duplicate
    } else if (!updates.empty()) {
      // Duplicate an earlier op verbatim (stresses dedup).
      updates.push_back(updates[rng.NextBounded(updates.size())]);
    }
  }
  return updates;
}

// Applies `updates` to a plain graph, producing the reference final state.
DiGraph ReferenceApply(DiGraph graph, const std::vector<EdgeUpdate>& updates) {
  for (const EdgeUpdate& u : updates) {
    if (u.kind == UpdateKind::kInsert) {
      graph.AddEdge(u.edge.from, u.edge.to);
    } else {
      graph.RemoveEdge(u.edge.from, u.edge.to);
    }
  }
  return graph;
}

using Param = std::tuple<uint64_t /*seed*/, double /*rebuild_threshold*/>;

class BatchPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(BatchPropertyTest, BatchEqualsReferenceEverywhere) {
  auto [seed, threshold] = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " threshold=" + std::to_string(threshold));
  DiGraph graph = RandomGraph(48, 2.5, seed);

  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));

  std::vector<EdgeUpdate> updates = MakeUpdateSequence(graph, 24, seed + 7);
  DiGraph reference = ReferenceApply(graph, updates);

  BatchOptions options;
  options.strategy = MaintenanceStrategy::kMinimality;
  options.rebuild_threshold = threshold;
  BatchResult result = ApplyUpdates(index, updates, options);
  EXPECT_EQ(result.inserted + result.removed + result.skipped,
            updates.size());

  BfsCycleCounter oracle(reference);
  for (Vertex v = 0; v < reference.num_vertices(); ++v) {
    ASSERT_EQ(index.Query(v), oracle.CountCycles(v)) << "vertex " << v;
  }

  // The maintained index must keep accepting batches: apply a second one.
  std::vector<EdgeUpdate> more = MakeUpdateSequence(reference, 12, seed + 99);
  DiGraph reference2 = ReferenceApply(reference, more);
  ApplyUpdates(index, more, options);
  BfsCycleCounter oracle2(reference2);
  for (Vertex v = 0; v < reference2.num_vertices(); ++v) {
    ASSERT_EQ(index.Query(v), oracle2.CountCycles(v))
        << "second batch, vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThresholds, BatchPropertyTest,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3, 4, 5),
                       ::testing::Values(0.0, 0.3, 10.0)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = "s";
      name += std::to_string(std::get<0>(info.param));
      name += "_t";
      name += std::to_string(static_cast<int>(std::get<1>(info.param) * 10));
      return name;
    });

TEST(BatchVsSequentialTest, IdenticalAnswersInsertOnly) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    DiGraph graph = RandomGraph(40, 2.0, seed + 200);
    std::vector<EdgeUpdate> updates;
    Rng rng(seed);
    for (int i = 0; i < 12; ++i) {
      Vertex u = static_cast<Vertex>(rng.NextBounded(graph.num_vertices()));
      Vertex v = static_cast<Vertex>(rng.NextBounded(graph.num_vertices()));
      updates.push_back(EdgeUpdate::Insert(u, v));
    }

    CscIndex batched = CscIndex::Build(graph, DegreeOrdering(graph));
    BatchOptions options;
    options.rebuild_threshold = 10.0;
    ApplyUpdates(batched, updates, options);

    CscIndex sequential = CscIndex::Build(graph, DegreeOrdering(graph));
    for (const EdgeUpdate& u : updates) {
      InsertEdge(sequential, u.edge.from, u.edge.to);
    }

    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
      ASSERT_EQ(batched.Query(v), sequential.Query(v))
          << "seed " << seed << " vertex " << v;
    }
  }
}

}  // namespace
}  // namespace csc
