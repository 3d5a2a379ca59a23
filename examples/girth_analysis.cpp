// Structural cycle analytics over a whole graph: girth, the distribution of
// per-vertex shortest-cycle lengths (the statistic Figure 13 renders as
// vertex color), and the SCC pre-filter — computed once with a parallel
// sweep of index queries. This is the "graph structure analysis" use the
// paper cites (girth in graph coloring, shortest-cycle length distributions
// in network science).
//
//   $ ./girth_analysis [num_vertices]
#include <cstdio>
#include <cstdlib>

#include "csc/csc_index.h"
#include "csc/frozen_index.h"
#include "csc/girth.h"
#include "graph/generators.h"
#include "graph/ordering.h"
#include "graph/scc.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace csc;

int main(int argc, char** argv) {
  Vertex n = argc > 1 ? static_cast<Vertex>(std::atoi(argv[1])) : 4000;

  DiGraph graph = GenerateSmallWorld(n, 3, 0.08, 31);
  std::printf("graph: %u vertices, %llu edges (small-world)\n",
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));

  // The SCC pre-filter answers "is v on any cycle?" in O(n + m) total.
  Timer timer;
  SccResult scc = ComputeScc(graph);
  uint64_t cyclic = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (scc.OnCycle(v)) ++cyclic;
  }
  std::printf("scc pre-filter: %llu of %u vertices on cycles (%.1f ms)\n",
              static_cast<unsigned long long>(cyclic), n,
              timer.ElapsedMillis());

  timer.Restart();
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  FrozenIndex frozen = FrozenIndex::FromIndex(index);
  std::printf("index: built in %.1f ms, %llu entries\n",
              timer.ElapsedMillis(),
              static_cast<unsigned long long>(index.TotalEntries()));

  // Girth + full length distribution folded over one parallel all-vertex
  // sweep.
  ThreadPool pool(ThreadPool::DefaultThreadCount());
  timer.Restart();
  std::vector<CycleCount> answers(n);
  ParallelFor(pool, 0, n, 256, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      answers[v] = frozen.Query(static_cast<Vertex>(v));
    }
  });
  double sweep_ms = timer.ElapsedMillis();

  auto answer = [&answers](Vertex v) { return answers[v]; };
  GirthInfo girth = ComputeGirth(n, answer);
  CycleLengthHistogram histogram = ComputeCycleLengthHistogram(n, answer);
  std::printf("parallel sweep of %u queries: %.1f ms on %u threads\n", n,
              sweep_ms, pool.num_threads());
  if (girth.girth == kInfDist) {
    std::printf("graph is acyclic (no girth)\n");
    return 0;
  }
  std::printf("girth: %u (realized by %llu vertices, e.g. v%u)\n",
              girth.girth,
              static_cast<unsigned long long>(girth.num_girth_vertices),
              girth.example_vertex);

  std::printf("\nshortest-cycle length distribution:\n");
  std::printf("  %-8s %-10s\n", "length", "vertices");
  for (size_t len = 0; len < histogram.vertices_by_length.size(); ++len) {
    if (histogram.vertices_by_length[len] == 0) continue;
    std::printf("  %-8zu %-10llu\n", len,
                static_cast<unsigned long long>(
                    histogram.vertices_by_length[len]));
  }
  std::printf("  %-8s %-10llu\n", "acyclic",
              static_cast<unsigned long long>(histogram.acyclic_vertices));

  // Consistency: the sweep, the histogram and the SCC filter must agree.
  uint64_t sweep_cyclic = 0;
  for (const CycleCount& c : answers) {
    if (c.count > 0) ++sweep_cyclic;
  }
  bool consistent =
      sweep_cyclic == cyclic && histogram.cyclic_vertices() == cyclic;
  std::printf("\ncross-check (index vs SCC filter): %s\n",
              consistent ? "OK" : "FAILED");
  return consistent ? 0 : 1;
}
