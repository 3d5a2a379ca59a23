// Sliding-window cycle monitoring over a temporal edge stream — the
// e-commerce / payments deployment the paper motivates: only transactions
// from the last W time units matter, so edges age out of the graph as new
// ones arrive. The stream is replayed in ticks; each tick's inserts and
// expiries are applied to the live CSC index as one batch, and the
// highest-cycle-count accounts inside the window are reported.
//
//   $ ./streaming_window [num_vertices] [window] [tick]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "baseline/bfs_cycle.h"
#include "csc/csc_index.h"
#include "csc/screening.h"
#include "csc/trending.h"
#include "dynamic/batch.h"
#include "graph/generators.h"
#include "graph/ordering.h"
#include "workload/temporal_stream.h"

using namespace csc;

int main(int argc, char** argv) {
  Vertex n = argc > 1 ? static_cast<Vertex>(std::atoi(argv[1])) : 2000;
  uint64_t window = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 800;
  uint64_t tick = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 400;

  // A transaction backbone provides the arrival sequence.
  DiGraph base = GeneratePreferentialAttachment(n, 2, 0.15, 99);
  std::vector<TemporalEdge> arrivals = ArrivalsFromGraph(base, 7);
  std::vector<StreamEvent> events = SlidingWindowEvents(arrivals, window);
  std::printf(
      "stream: %zu arrivals over %zu time units, window=%llu, tick=%llu\n",
      arrivals.size(), arrivals.size(), static_cast<unsigned long long>(window),
      static_cast<unsigned long long>(tick));

  // Start from an empty graph with n vertex slots; minimality maintenance
  // keeps the index sound under the stream's constant expirations.
  DiGraph empty(n);
  CscIndex index = CscIndex::Build(empty, DegreeOrdering(empty));

  BatchOptions batch_options;
  batch_options.strategy = MaintenanceStrategy::kMinimality;
  batch_options.rebuild_threshold = 0.6;  // rebuild only on extreme churn

  TrendTracker tracker(3);
  size_t next_event = 0;
  uint64_t horizon = arrivals.size() + window;
  int checks = 0, mismatches = 0, alerts = 0;
  for (uint64_t now = tick; now <= horizon + tick; now += tick) {
    std::vector<EdgeUpdate> updates;
    while (next_event < events.size() && events[next_event].time <= now) {
      updates.push_back(events[next_event].update);
      ++next_event;
    }
    BatchResult result = ApplyUpdates(index, updates, batch_options);
    std::vector<ScreeningHit> top = TopKByCycleCount(index, kInfDist, 3);
    TrendReport trend = tracker.Observe(top);
    alerts += static_cast<int>(trend.entered.size() +
                               trend.shortened.size());
    std::printf(
        "t=%6llu  +%zu -%zu (skip %zu%s, %.1f ms)  top:",
        static_cast<unsigned long long>(now), result.inserted, result.removed,
        result.skipped, result.rebuilt ? ", rebuilt" : "",
        result.seconds * 1e3);
    for (const ScreeningHit& hit : top) {
      std::printf(" v%u(len=%u,cnt=%llu)", hit.vertex, hit.cycles.length,
                  static_cast<unsigned long long>(hit.cycles.count));
    }
    for (const ScreeningHit& hit : trend.entered) {
      std::printf(" [new v%u]", hit.vertex);
    }
    for (const ScreeningHit& hit : trend.shortened) {
      std::printf(" [shorter v%u]", hit.vertex);
    }
    std::printf("\n");

    // Spot-check the live index against a BFS oracle on the window graph.
    DiGraph reference = GraphAtTime(n, events, now);
    BfsCycleCounter oracle(reference);
    for (Vertex v = 0; v < n; v += n / 16 + 1) {
      ++checks;
      if (index.Query(v) != oracle.CountCycles(v)) ++mismatches;
    }
  }

  std::printf("\nwindow replay finished: %d spot checks, %d mismatches, "
              "%d trend alerts\n",
              checks, mismatches, alerts);
  return mismatches == 0 ? 0 : 1;
}
