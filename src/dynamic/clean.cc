#include "dynamic/clean.h"

#include <vector>

#include "graph/bipartite.h"

namespace csc {

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
    (in_side ? index.mutable_inv_in() : index.mutable_inv_out())
        .Remove(hub, owner);
  }
}

// Removes stale entries that use v_i (v = `owner`) as the hub, on the
// opposite side, located through the inverted index (Algorithm 8 lines
// 6-11). `owner_is_in_hub`: entries (v_i, d, c) in L_out(x_o), paths
// x_o -> v_i; otherwise entries in L_in(u_i), paths v_i -> u_i.
void CleanAsHub(CscIndex& index, Vertex owner, bool owner_is_in_hub,
                UpdateStats& stats) {
  HubLabeling& labels = index.mutable_served_labels();
  const Vertex vi = InVertex(owner);
  const Rank owner_rank = index.bipartite_order().vertex_to_rank[vi];
  InvertedIndex& inverted =
      owner_is_in_hub ? index.mutable_inv_out() : index.mutable_inv_in();
  std::vector<Vertex> holders(inverted.Vertices(owner_rank).begin(),
                              inverted.Vertices(owner_rank).end());
  for (Vertex u : holders) {
    if (!owner_is_in_hub && u == owner) continue;  // v_i's self entry
    LabelSet& set = owner_is_in_hub ? labels.out[u] : labels.in[u];
    const LabelEntry* e = set.Find(owner_rank);
    if (e == nullptr) {
      inverted.Remove(owner_rank, u);  // repair a dangling inverted entry
      continue;
    }
    JoinResult now = owner_is_in_hub
                         ? index.BipartiteQuery(OutVertex(u), vi)
                         : index.BipartiteQuery(vi, InVertex(u));
    if (e->dist() > now.dist) {
      set.Remove(owner_rank);
      inverted.Remove(owner_rank, u);
      ++stats.entries_removed;
      stats.MarkDirty(u, /*in_side=*/!owner_is_in_hub);
    }
  }
}

}  // namespace

void CleanAfterInLabelChange(CscIndex& index, Vertex w, UpdateStats& stats) {
  CleanOwnLabels(index, w, /*in_side=*/true, stats);
  CleanAsHub(index, w, /*owner_is_in_hub=*/true, stats);
}

void CleanAfterOutLabelChange(CscIndex& index, Vertex v, UpdateStats& stats) {
  CleanOwnLabels(index, v, /*in_side=*/false, stats);
  CleanAsHub(index, v, /*owner_is_in_hub=*/false, stats);
}

}  // namespace csc
