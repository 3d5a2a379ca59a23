#ifndef CSC_CSC_SCREENING_H_
#define CSC_CSC_SCREENING_H_

#include <vector>

#include "csc/csc_index.h"
#include "csc/frozen_index.h"

namespace csc {

/// One screening hit: a vertex together with its shortest-cycle answer.
struct ScreeningHit {
  Vertex vertex = kNoVertex;
  CycleCount cycles;

  friend bool operator==(const ScreeningHit&, const ScreeningHit&) = default;
};

/// The screening rank order — count descending, then shorter cycles, then
/// lower vertex id. A strict total order (no ties survive), so every
/// screening ranks its hits identically.
bool ScreeningHitBefore(const ScreeningHit& a, const ScreeningHit& b);

/// The paper's anomaly-screening primitive (Application 1, Figure 13):
/// among vertices whose shortest cycle has length <= `max_cycle_length`,
/// the `top_k` with the most shortest cycles, ordered by count descending
/// (ties: shorter cycles first, then lower vertex id).
///
/// `answers[v]` is SCCnt(v) for every vertex v of the graph, however it
/// was swept (sequentially, across a pool, or merged from shards); an
/// empty count drops the vertex. This is the one filter/sort/truncate
/// every screening runs. Pass `max_cycle_length = kInfDist` to consider
/// every vertex on a cycle.
std::vector<ScreeningHit> TopKByCycleCount(
    const std::vector<CycleCount>& answers, Dist max_cycle_length,
    size_t top_k);

/// Sequential sweep of `index`, ranked by the answers overload.
std::vector<ScreeningHit> TopKByCycleCount(const CscIndex& index,
                                           Dist max_cycle_length,
                                           size_t top_k);

/// Same screening over the frozen serving form (identical results).
std::vector<ScreeningHit> TopKByCycleCount(const FrozenIndex& index,
                                           Dist max_cycle_length,
                                           size_t top_k);

/// One edge-screening hit: a (present) edge with the shortest cycles that
/// pass through it.
struct EdgeScreeningHit {
  Edge edge;
  CycleCount cycles;

  friend bool operator==(const EdgeScreeningHit&,
                         const EdgeScreeningHit&) = default;
};

/// Screens *edges* instead of vertices: among the graph's current edges
/// whose through-edge shortest cycle has length <= `max_cycle_length`, the
/// `top_k` with the most such cycles (ties: shorter cycles, then lower
/// (from, to)). In the fraud framing, this ranks individual transactions —
/// a specific transfer sitting on many short feedback routes — rather than
/// accounts.
std::vector<EdgeScreeningHit> TopKEdgesByCycleCount(const CscIndex& index,
                                                    Dist max_cycle_length,
                                                    size_t top_k);

}  // namespace csc

#endif  // CSC_CSC_SCREENING_H_
