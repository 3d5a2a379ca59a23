#ifndef CSC_BASELINE_BFS_CYCLE_H_
#define CSC_BASELINE_BFS_CYCLE_H_

#include <vector>

#include "graph/digraph.h"
#include "util/common.h"

namespace csc {

/// Algorithm 1's working arrays, sized to the largest graph queried so far
/// and reset lazily: a query clears only the vertices the previous one
/// touched, so repeated queries pay no O(n) allocation or fill. One scratch
/// serves one thread at a time.
class BfsScratch {
 public:
  /// SCCnt(vq) on `graph` with shortest length, by Algorithm 1.
  CycleCount CountCycles(const DiGraph& graph, Vertex vq);

 private:
  // Grows the arrays to cover `num_vertices` (never shrinks them).
  void Reserve(Vertex num_vertices);

  std::vector<Dist> dist_;
  std::vector<Count> count_;
  std::vector<Vertex> touched_;
  std::vector<Vertex> queue_;
};

/// Index-free baseline (Algorithm 1, BFS-CYCLE): a counting BFS from the
/// query vertex's out-neighbors back to the query vertex. O(n + m) time per
/// query, over scratch the counter owns.
class BfsCycleCounter {
 public:
  explicit BfsCycleCounter(const DiGraph& graph) : graph_(&graph) {}

  /// SCCnt(vq) with shortest length, by Algorithm 1.
  CycleCount CountCycles(Vertex vq) {
    return scratch_.CountCycles(*graph_, vq);
  }

  const DiGraph& graph() const { return *graph_; }

 private:
  const DiGraph* graph_;
  BfsScratch scratch_;
};

/// SCCnt(vq) by Algorithm 1 over the calling thread's own BfsScratch:
/// reentrant, and allocation-free once that scratch covers the graph. The
/// scratch lives until the thread exits and keeps the size of the largest
/// graph the thread has queried (12-20 bytes per vertex); no backend's
/// MemoryBytes() counts it.
CycleCount BfsCountCycles(const DiGraph& graph, Vertex vq);

/// Exponential-time oracle that enumerates simple cycles through `vq` by
/// depth-first search, for cross-validating the three real engines on tiny
/// graphs (tests only; do not call on graphs beyond a few dozen vertices).
CycleCount NaiveCountCyclesDfs(const DiGraph& graph, Vertex vq);

}  // namespace csc

#endif  // CSC_BASELINE_BFS_CYCLE_H_
