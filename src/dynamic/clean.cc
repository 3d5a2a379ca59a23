#include "dynamic/clean.h"

#include <utility>
#include <vector>

#include "graph/bipartite.h"

namespace csc {

// Why one cleaning at the end of a landing removes what cleaning after
// every label change removes:
//  - A stale entry's distance is above the 2-hop minimum between its hub and
//    its owner. Any join that reads it has a shorter path through that
//    minimum, so removing it never changes a join's minimum (nor its count),
//    and so never changes which other entries are stale.
//  - Inserts only shorten distances, so an entry that is stale at any point
//    in a landing is still stale at its end, unless a later pass rewrote it
//    shorter, and then its set is one of the changed sets cleaned below.
//  - The sets checked at the end are a superset of those that per-change
//    cleaning checks: every changed set, and every set that holds a changed
//    set's owner as a hub at the end of the landing.

namespace {

// Removes from the stored set of original vertex `owner` (`in_side`:
// L_in(owner_i), distances hub -> owner_i; otherwise L_out(owner_o),
// distances owner_o -> hub) every entry whose stored distance now exceeds
// the 2-hop distance recomputed under the current index.
void CleanOwnLabels(CscIndex& index, Vertex owner, bool in_side,
                    UpdateStats& stats) {
  HubLabeling& labels = index.mutable_served_labels();
  const auto& order = index.bipartite_order();
  const Vertex x = in_side ? InVertex(owner) : OutVertex(owner);
  LabelSet& set = in_side ? labels.in[owner] : labels.out[owner];
  std::vector<Rank> stale;
  for (const LabelEntry& e : set.entries()) {
    Vertex hub_vertex = order.rank_to_vertex[e.hub()];
    if (hub_vertex == x) continue;  // self entries are never redundant
    JoinResult now = in_side ? index.BipartiteQuery(hub_vertex, x)
                             : index.BipartiteQuery(x, hub_vertex);
    if (e.dist() > now.dist) stale.push_back(e.hub());
  }
  for (Rank hub : stale) {
    set.Remove(hub);
    ++stats.entries_removed;
    stats.MarkDirty(owner, in_side);
  }
}

// Removes stale entries whose hub is v_i for an owner v in `owners` from
// every stored set of one side (Algorithm 8 lines 6-11), found in one scan.
// `in_side`: entries (v_i, d, c) in L_in(u_i), paths v_i -> u_i, skipping
// v_i's own self entry; otherwise entries in L_out(x_o), paths x_o -> v_i.
void CleanHolders(CscIndex& index, const std::vector<Vertex>& owners,
                  bool in_side, UpdateStats& stats) {
  if (owners.empty()) return;
  HubLabeling& labels = index.mutable_served_labels();
  const auto& order = index.bipartite_order();
  std::vector<uint8_t> hub_changed(order.size(), 0);
  for (Vertex v : owners) hub_changed[order.vertex_to_rank[InVertex(v)]] = 1;
  std::vector<LabelSet>& sets = in_side ? labels.in : labels.out;
  std::vector<std::pair<Vertex, Rank>> stale;
  for (Vertex u = 0; u < sets.size(); ++u) {
    for (const LabelEntry& e : sets[u].entries()) {
      if (hub_changed[e.hub()] == 0) continue;
      const Vertex vi = order.rank_to_vertex[e.hub()];
      if (in_side && OriginalOf(vi) == u) continue;  // v_i's self entry
      JoinResult now = in_side ? index.BipartiteQuery(vi, InVertex(u))
                               : index.BipartiteQuery(OutVertex(u), vi);
      if (e.dist() > now.dist) stale.emplace_back(u, e.hub());
    }
  }
  for (const auto& [u, hub] : stale) {
    sets[u].Remove(hub);
    ++stats.entries_removed;
    stats.MarkDirty(u, in_side);
  }
}

}  // namespace

void CleanChangedLabels(CscIndex& index, const DirtyLabelTracker& changed,
                        UpdateStats& stats) {
  for (Vertex w : changed.dirty_in()) {
    CleanOwnLabels(index, w, /*in_side=*/true, stats);
  }
  for (Vertex v : changed.dirty_out()) {
    CleanOwnLabels(index, v, /*in_side=*/false, stats);
  }
  // w_i of a changed L_in(w_i) is held in the L_out sets; v_i of a changed
  // L_out(v_o), whose L_out(v_i) changed with it, in the L_in sets.
  CleanHolders(index, changed.dirty_in(), /*in_side=*/false, stats);
  CleanHolders(index, changed.dirty_out(), /*in_side=*/true, stats);
}

}  // namespace csc
