// Continuous monitoring on a dynamic graph: a stream of edge insertions and
// deletions is applied to a live CSC index while a watchlist of vertices is
// re-checked after every update — the paper's motivating deployment
// ("continuous monitoring of shortest cycle numbers is needed"). Reports
// update latencies and validates a checkpoint/restore round trip.
//
//   $ ./dynamic_monitoring [num_vertices] [num_updates]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "csc/frozen_index.h"
#include "dynamic/decremental.h"
#include "dynamic/incremental.h"
#include "graph/generators.h"
#include "graph/ordering.h"
#include "util/env.h"
#include "util/random.h"
#include "util/timer.h"

using namespace csc;

int main(int argc, char** argv) {
  Vertex n = argc > 1 ? static_cast<Vertex>(std::atoi(argv[1])) : 5000;
  int num_updates = argc > 2 ? std::atoi(argv[2]) : 200;

  DiGraph graph = GeneratePreferentialAttachment(n, 2, 0.1, 77);
  std::printf("stream start: %u vertices, %llu edges, %d updates\n",
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()), num_updates);

  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  std::printf("initial build: %.1f ms, %llu entries\n",
              index.build_stats().seconds * 1e3,
              static_cast<unsigned long long>(index.TotalEntries()));

  // Watch the five highest-degree vertices (fraud-desk style watchlist).
  std::vector<Vertex> watchlist;
  for (Vertex v = 0; v < n; ++v) {
    watchlist.push_back(v);
    std::sort(watchlist.begin(), watchlist.end(),
              [&graph](Vertex a, Vertex b) {
                return graph.Degree(a) > graph.Degree(b);
              });
    if (watchlist.size() > 5) watchlist.resize(5);
  }

  Rng rng(123);
  UpdateStats insert_stats, delete_stats;
  int inserts = 0, deletes = 0, alerts = 0;
  std::vector<CycleCount> last(n);
  for (Vertex v : watchlist) last[v] = index.Query(v);

  for (int step = 0; step < num_updates; ++step) {
    // 70% insertions: transaction streams are append-heavy. Deletions use
    // the minimality strategy on insert so the index stays minimal.
    bool insert = rng.NextBool(0.7);
    if (insert) {
      Vertex u = static_cast<Vertex>(rng.NextBounded(n));
      Vertex v = static_cast<Vertex>(rng.NextBounded(n));
      if (u == v || graph.HasEdge(u, v)) continue;
      InsertEdge(index, u, v, MaintenanceStrategy::kMinimality,
                 &insert_stats);
      graph.AddEdge(u, v);
      ++inserts;
    } else {
      std::vector<Edge> edges = graph.Edges();
      Edge e = edges[rng.NextBounded(edges.size())];
      RemoveEdge(index, e.from, e.to, &delete_stats);
      graph.RemoveEdge(e.from, e.to);
      ++deletes;
    }
    for (Vertex v : watchlist) {
      CycleCount now = index.Query(v);
      if (now.count > 0 &&
          (last[v].count == 0 || now.length < last[v].length)) {
        std::printf("  [alert] step %d: vertex %u shortest cycle now len=%u "
                    "count=%llu\n",
                    step, v, now.length,
                    static_cast<unsigned long long>(now.count));
        ++alerts;
      }
      last[v] = now;
    }
  }

  std::printf("\napplied %d inserts (avg %.2f ms) and %d deletes (avg %.2f "
              "ms); %d alerts\n",
              inserts, inserts ? insert_stats.seconds * 1e3 / inserts : 0.0,
              deletes, deletes ? delete_stats.seconds * 1e3 / deletes : 0.0,
              alerts);

  // Checkpoint the live index and prove the restored copy agrees.
  CompactIndex checkpoint = CompactIndex::FromIndex(index);
  std::string path = "monitoring.checkpoint";
  WriteStringToFile(path, checkpoint.Serialize());
  FrozenIndex restored = FrozenIndex::FromCompact(
      *CompactIndex::Deserialize(*ReadFileToString(path)));
  int mismatches = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (restored.Query(v) != index.Query(v)) ++mismatches;
  }
  std::printf("checkpoint round trip: %s (%d mismatches)\n",
              mismatches == 0 ? "OK" : "FAILED", mismatches);
  return mismatches == 0 ? 0 : 1;
}
