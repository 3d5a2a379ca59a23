#ifndef CSC_DYNAMIC_INCREMENTAL_H_
#define CSC_DYNAMIC_INCREMENTAL_H_

#include "csc/csc_index.h"
#include "dynamic/update_stats.h"

namespace csc {

/// INCCNT (Algorithm 5): inserts the original-graph edge (a, b) into the
/// indexed graph and incrementally repairs the CSC index.
///
/// The bipartite edge (a_o, b_i) is added, the affected hubs — hubs of
/// L_in(a_o) and of L_out(b_i) (Definition V.1) — are replayed in descending
/// rank order, and each runs a resumed counting BFS (FORWARD_PASS /
/// BACKWARD_PASS, Algorithm 6) seeded with that hub's own label distance and
/// count (Theorem V.1), updating labels through UPDATE_LABEL (Algorithm 7).
///
/// With MaintenanceStrategy::kMinimality, CLEAN_LABEL (dynamic/clean.h)
/// runs once after the passes, over the sets they gave a new or shortened
/// entry, keeping the index minimal.
///
/// Returns false (index untouched) if the edge already exists, is a
/// self-loop, or an endpoint is out of range.
bool InsertEdge(CscIndex& index, Vertex a, Vertex b,
                MaintenanceStrategy strategy = MaintenanceStrategy::kRedundancy,
                UpdateStats* stats = nullptr);

/// INCCNT's passes without the cleaning (InsertEdge under kRedundancy),
/// also marking in `changed`, when set, each stored set that got a new or
/// shortened entry. A landing of several inserts calls this for each and
/// CleanChangedLabels(index, *changed, ...) once after the last one.
bool InsertEdgeUncleaned(CscIndex& index, Vertex a, Vertex b,
                         DirtyLabelTracker* changed,
                         UpdateStats* stats = nullptr);

}  // namespace csc

#endif  // CSC_DYNAMIC_INCREMENTAL_H_
