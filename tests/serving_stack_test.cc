// End-to-end integration of the post-paper stack: a temporal stream is
// replayed through batch maintenance, the resulting index is persisted with
// a checksum, reloaded, frozen, compressed, screened, trend-tracked and
// rendered — with every stage cross-checked against the BFS oracle on the
// reference window graph.
#include <cstdio>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "csc/frozen_index.h"
#include "csc/girth.h"
#include "csc/index_io.h"
#include "csc/screening.h"
#include "csc/trending.h"
#include "dynamic/batch.h"
#include "graph/dot_export.h"
#include "graph/ordering.h"
#include "graph/scc.h"
#include "graph/subgraph.h"
#include "tests/test_util.h"
#include "workload/temporal_stream.h"

namespace csc {
namespace {

TEST(ServingStackTest, StreamToPersistedServingTier) {
  // 1. Stream: replay half of a generated graph's arrivals into a live
  //    index through batch maintenance.
  DiGraph base = RandomGraph(60, 3.0, 314);
  std::vector<TemporalEdge> arrivals = ArrivalsFromGraph(base, 15);
  const uint64_t window = arrivals.size();  // nothing expires in this phase
  std::vector<StreamEvent> events = SlidingWindowEvents(arrivals, window);

  DiGraph empty(base.num_vertices());
  CscIndex index = CscIndex::Build(empty, DegreeOrdering(empty));

  BatchOptions batch_options;
  batch_options.strategy = MaintenanceStrategy::kMinimality;
  batch_options.rebuild_threshold = 10.0;

  TrendTracker tracker(5);
  uint64_t half_time = arrivals.size() / 2;
  size_t next = 0;
  for (uint64_t t = 10; t <= half_time; t += 10) {
    std::vector<EdgeUpdate> tick;
    while (next < events.size() && events[next].time <= t) {
      tick.push_back(events[next].update);
      ++next;
    }
    ApplyUpdates(index, tick, batch_options);
    tracker.Observe(TopKByCycleCount(index, kInfDist, 5));
  }
  DiGraph reference =
      GraphAtTime(base.num_vertices(), events, (half_time / 10) * 10);

  // 2. Persist with checksum, reload.
  std::string path = ::testing::TempDir() + "serving_stack.idx";
  ASSERT_TRUE(
      SavePayloadToFile(CompactIndex::FromIndex(index).Serialize(), path));
  std::string error;
  std::optional<std::string> payload = ReadVerifiedPayload(path, &error);
  ASSERT_TRUE(payload.has_value()) << error;
  std::remove(path.c_str());
  std::optional<CompactIndex> loaded = CompactIndex::Deserialize(*payload);
  ASSERT_TRUE(loaded.has_value());

  // 3. Freeze + compress the reloaded index; verify every form against the
  //    oracle on the reference graph.
  FrozenIndex frozen = FrozenIndex::FromCompact(*loaded);
  FrozenIndex compressed =
      FrozenIndex::FromCompact(*loaded, ArenaEncoding::kVarint);
  SccResult scc = ComputeScc(reference);
  BfsCycleCounter oracle(reference);
  for (Vertex v = 0; v < reference.num_vertices(); ++v) {
    CycleCount truth = oracle.CountCycles(v);
    ASSERT_EQ(index.Query(v), truth) << "live index, vertex " << v;
    ASSERT_EQ(frozen.Query(v), truth) << "frozen, vertex " << v;
    ASSERT_EQ(compressed.Query(v), truth) << "compressed, vertex " << v;
    ASSERT_EQ(truth.count > 0, scc.OnCycle(v)) << "SCC filter, vertex " << v;
  }

  // 4. Screening: consistent with the girth.
  std::vector<ScreeningHit> hits = TopKByCycleCount(frozen, kInfDist, 8);
  GirthInfo girth = ComputeGirth(frozen);
  if (!hits.empty()) {
    EXPECT_GE(hits.front().cycles.length, girth.girth);
  }

  // 5. Case-study rendering of the top hit parses as non-empty DOT.
  if (!hits.empty()) {
    Subgraph sub = ShortestCycleSubgraph(reference, hits.front().vertex);
    ASSERT_GT(sub.graph.num_vertices(), 0u);
    std::string dot = RenderCycleStudyDot(
        sub, [&](Vertex v) { return frozen.Query(v); });
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
  }

  // 6. The trend tracker observed every tick.
  EXPECT_GT(tracker.ticks_observed(), 0u);
  EXPECT_EQ(tracker.current(), TopKByCycleCount(index, kInfDist, 5));
}

}  // namespace
}  // namespace csc
