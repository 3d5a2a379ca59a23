// Quickstart: build a CSC index over a small transaction graph, answer
// shortest-cycle counting queries, apply live edge updates, persist the
// index to disk — then serve the same index through the batched Engine
// facade with a runtime-selected backend.
//
//   $ ./quickstart
#include <cstdio>

#include "csc/index_io.h"
#include "dynamic/edge_update.h"
#include "graph/digraph.h"
#include "serving/engine.h"
#include "util/env.h"

using namespace csc;

namespace {

void PrintAnswer(const char* when, Vertex v, const CycleCount& cc) {
  if (cc.count == 0) {
    std::printf("%-28s SCCnt(%u) = no cycle through vertex %u\n", when, v, v);
  } else {
    std::printf("%-28s SCCnt(%u) = %llu shortest cycle(s) of length %u\n",
                when, v, static_cast<unsigned long long>(cc.count), cc.length);
  }
}

}  // namespace

int main() {
  // The running example of the paper (Figure 2), a 10-vertex directed graph.
  DiGraph graph = DiGraph::FromEdges(
      10, {{0, 2}, {0, 3}, {0, 4}, {2, 5}, {3, 6}, {4, 6}, {5, 6}, {6, 7},
           {7, 8}, {8, 9}, {9, 0}, {9, 1}, {1, 3}});
  std::printf("graph: %u vertices, %llu edges\n", graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));

  // 1. Stand up a serving engine on the CSC backend (the default; any
  //    registered backend name works — see `csc_cli backends`).
  Engine engine;
  engine.Build(graph);
  BackendStats stats = engine.Stats();
  std::printf("engine built backend '%s' in %.3f ms (%llu label entries)\n",
              stats.name.c_str(), stats.build_seconds * 1e3,
              static_cast<unsigned long long>(stats.label_entries));

  // 2. Query: vertex 6 is the paper's v7 with three shortest 6-cycles.
  PrintAnswer("initial graph:", 6, engine.Query(6));

  // 3. Dynamic update: a new edge 7 -> 6 (v8 -> v7) closes a 2-cycle. The
  //    engine repairs a shadow index (INCCNT) and swaps in a patched
  //    snapshot; the answer is visible when ApplyUpdates returns.
  engine.ApplyUpdates({EdgeUpdate::Insert(7, 6)});
  PrintAnswer("after inserting 7->6:", 6, engine.Query(6));

  // 4. Remove it again; the answer returns to the original.
  engine.ApplyUpdates({EdgeUpdate::Remove(7, 6)});
  PrintAnswer("after removing 7->6:", 6, engine.Query(6));

  // 5. Batched queries fan out across the engine's thread pool once the
  //    batch is longer than EngineOptions::batch_grain.
  std::vector<CycleCount> all = engine.QueryAll();
  uint64_t cyclic = 0;
  for (const CycleCount& cc : all) cyclic += cc.count > 0 ? 1 : 0;
  std::printf("%-28s %llu of %zu vertices lie on a cycle\n",
              "batched sweep:", static_cast<unsigned long long>(cyclic),
              all.size());

  // 6. Persist through the interface — the file carries a CRC-32C so
  //    corruption is rejected at load — and serve the reloaded index from
  //    the read-optimized frozen backend.
  std::string path = "quickstart.cscindex";
  std::shared_ptr<CycleIndex> built = engine.snapshot();
  if (!SaveBackendToFile(*built, path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  BackendLoadResult reloaded = LoadBackendFromFile(path, "frozen");
  if (!reloaded.ok()) {
    std::fprintf(stderr, "reload failed: %s\n", reloaded.error.c_str());
    return 1;
  }
  PrintAnswer("reloaded into 'frozen':", 6,
              reloaded.index->CountShortestCycles(6));
  std::printf("index file: %s (%s)\n", path.c_str(),
              HumanBytes(ReadFileToString(path)->size()).c_str());
  return 0;
}
