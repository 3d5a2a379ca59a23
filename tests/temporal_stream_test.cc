#include "workload/temporal_stream.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
#include "dynamic/batch.h"
#include "graph/ordering.h"
#include "tests/test_util.h"

namespace csc {
namespace {

TEST(ArrivalsTest, CoverEveryEdgeExactlyOnceWithDenseTimes) {
  DiGraph graph = Figure2Graph();
  std::vector<TemporalEdge> arrivals = ArrivalsFromGraph(graph, 1);
  ASSERT_EQ(arrivals.size(), graph.num_edges());
  std::set<std::pair<Vertex, Vertex>> seen;
  std::set<uint64_t> times;
  for (const TemporalEdge& a : arrivals) {
    EXPECT_TRUE(graph.HasEdge(a.edge.from, a.edge.to));
    seen.insert({a.edge.from, a.edge.to});
    times.insert(a.time);
    EXPECT_GE(a.time, 1u);
    EXPECT_LE(a.time, graph.num_edges());
  }
  EXPECT_EQ(seen.size(), graph.num_edges());
  EXPECT_EQ(times.size(), graph.num_edges());
}

TEST(ArrivalsTest, DeterministicInSeedAndSeedSensitive) {
  DiGraph graph = RandomGraph(40, 3.0, 2);
  EXPECT_EQ(ArrivalsFromGraph(graph, 7), ArrivalsFromGraph(graph, 7));
  EXPECT_NE(ArrivalsFromGraph(graph, 7), ArrivalsFromGraph(graph, 8));
}

TEST(SlidingWindowTest, EventsAreTimeOrderedWithRemovalsFirst) {
  DiGraph graph = RandomGraph(30, 3.0, 3);
  std::vector<StreamEvent> events =
      SlidingWindowEvents(ArrivalsFromGraph(graph, 4), 10);
  for (size_t i = 1; i < events.size(); ++i) {
    ASSERT_LE(events[i - 1].time, events[i].time);
    if (events[i - 1].time == events[i].time &&
        events[i - 1].update.kind == UpdateKind::kInsert) {
      EXPECT_EQ(events[i].update.kind, UpdateKind::kInsert)
          << "removal after insert at time " << events[i].time;
    }
  }
}

TEST(SlidingWindowTest, EveryInsertHasAMatchingRemove) {
  DiGraph graph = RandomGraph(30, 2.5, 5);
  std::vector<StreamEvent> events =
      SlidingWindowEvents(ArrivalsFromGraph(graph, 6), 17);
  std::multiset<std::pair<Vertex, Vertex>> open;
  for (const StreamEvent& event : events) {
    std::pair<Vertex, Vertex> key = {event.update.edge.from,
                                     event.update.edge.to};
    if (event.update.kind == UpdateKind::kInsert) {
      open.insert(key);
    } else {
      auto it = open.find(key);
      ASSERT_NE(it, open.end()) << "remove without live insert";
      open.erase(it);
    }
  }
  EXPECT_TRUE(open.empty());
}

TEST(SlidingWindowTest, LiveSetIsExactlyTheWindow) {
  DiGraph graph = RandomGraph(25, 2.5, 8);
  std::vector<TemporalEdge> arrivals = ArrivalsFromGraph(graph, 9);
  const uint64_t window = 7;
  std::vector<StreamEvent> events = SlidingWindowEvents(arrivals, window);

  for (uint64_t t = 0; t <= arrivals.size() + window + 1; t += 3) {
    DiGraph at_t = GraphAtTime(graph.num_vertices(), events, t);
    std::set<std::pair<Vertex, Vertex>> expected;
    for (const TemporalEdge& a : arrivals) {
      if (a.time <= t && t < a.time + window) {
        expected.insert({a.edge.from, a.edge.to});
      }
    }
    EXPECT_EQ(at_t.num_edges(), expected.size()) << "time " << t;
    for (const auto& [from, to] : expected) {
      EXPECT_TRUE(at_t.HasEdge(from, to))
          << "time " << t << " edge " << from << "->" << to;
    }
  }
}

TEST(SlidingWindowTest, RefreshExtendsExpiryInsteadOfDuplicating) {
  // Edge (0,1) arrives at t=1 and again at t=3 inside a window of 5: it
  // must stay live continuously until t=8 with exactly one insert/remove.
  std::vector<TemporalEdge> arrivals = {{1, {0, 1}}, {3, {0, 1}}};
  std::vector<StreamEvent> events = SlidingWindowEvents(arrivals, 5);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], (StreamEvent{1, EdgeUpdate::Insert(0, 1)}));
  EXPECT_EQ(events[1], (StreamEvent{8, EdgeUpdate::Remove(0, 1)}));
}

TEST(SlidingWindowTest, GapCreatesTwoIntervals) {
  // Arrivals at 1 and 20, window 5: two disjoint liveness intervals.
  std::vector<TemporalEdge> arrivals = {{1, {2, 3}}, {20, {2, 3}}};
  std::vector<StreamEvent> events = SlidingWindowEvents(arrivals, 5);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].time, 1u);
  EXPECT_EQ(events[1].time, 6u);
  EXPECT_EQ(events[2].time, 20u);
  EXPECT_EQ(events[3].time, 25u);
}

TEST(SlidingWindowTest, MaintainedIndexTracksTheWindow) {
  // End-to-end: replay the stream through batch maintenance, checkpointing
  // against a BFS oracle on the reference window graph. Uses minimality
  // maintenance so interleaved removals stay sound across batches.
  DiGraph base = RandomGraph(30, 2.5, 21);
  std::vector<TemporalEdge> arrivals = ArrivalsFromGraph(base, 22);
  const uint64_t window = 12;
  std::vector<StreamEvent> events = SlidingWindowEvents(arrivals, window);

  CscIndex index =
      CscIndex::Build(DiGraph(base.num_vertices()),
                      DegreeOrdering(DiGraph(base.num_vertices())));
  BatchOptions options;
  options.strategy = MaintenanceStrategy::kMinimality;
  options.rebuild_threshold = 10.0;  // pure incremental/decremental

  size_t next_event = 0;
  const uint64_t horizon = arrivals.size() + window + 1;
  for (uint64_t t = 4; t <= horizon; t += 4) {
    std::vector<EdgeUpdate> tick;
    while (next_event < events.size() && events[next_event].time <= t) {
      tick.push_back(events[next_event].update);
      ++next_event;
    }
    ApplyUpdates(index, tick, options);

    DiGraph reference = GraphAtTime(base.num_vertices(), events, t);
    BfsCycleCounter oracle(reference);
    for (Vertex v = 0; v < reference.num_vertices(); ++v) {
      ASSERT_EQ(index.Query(v), oracle.CountCycles(v))
          << "time " << t << " vertex " << v;
    }
  }
}

}  // namespace
}  // namespace csc
