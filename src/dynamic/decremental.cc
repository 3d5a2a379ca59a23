#include "dynamic/decremental.h"

#include <algorithm>

#include <vector>

#include "graph/bipartite.h"
#include "labeling/hub_row.h"
#include "util/timer.h"

namespace csc {

namespace {

// Plain BFS distances over G_b from bipartite vertex `source` (forward or
// reverse), walked over the input graph (graph/bipartite.h).
std::vector<Dist> BfsDistances(const DiGraph& graph, Vertex source,
                               bool forward) {
  std::vector<Dist> dist(2 * graph.num_vertices(), kInfDist);
  std::vector<Vertex> queue = {source};
  dist[source] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const Vertex x = queue[head];
    auto reach = [&](Vertex y) {
      if (dist[y] == kInfDist) {
        dist[y] = dist[x] + 1;
        queue.push_back(y);
      }
    };
    const Vertex v = OriginalOf(x);
    if (IsInVertex(x) == forward) {
      reach(CoupleOf(x));
    } else {
      for (Vertex w : forward ? graph.OutNeighbors(v) : graph.InNeighbors(v)) {
        reach(forward ? InVertex(w) : OutVertex(w));
      }
    }
  }
  return dist;
}

/// Construction-style pruned counting BFS from one affected hub v_i over the
/// post-deletion graph (step 3). It hops couple to couple as Algorithm 3
/// does: a forward pass dequeues only V_in vertices and writes L_in(w_i), a
/// backward pass only V_out vertices and writes L_out(w_o); the couple's
/// entry one step further is the §IV.E copy the index does not store.
/// Pruning is Algorithm 3's, restricted to hubs of strictly higher rank (a
/// HubRow loaded below the hub's rank), with idempotent InsertOrReplace
/// instead of Append (unaffected entries are rewritten with their current
/// values).
class RecoveryPass {
 public:
  RecoveryPass(CscIndex& index, UpdateStats& stats)
      : index_(index),
        stats_(stats),
        dist_(2 * index.num_original_vertices(), kInfDist),
        count_(2 * index.num_original_vertices(), 0),
        row_(2 * index.num_original_vertices()) {}

  void Run(Rank hub_rank, bool forward) {
    const DiGraph& graph = index_.graph();
    const auto& order = index_.bipartite_order();
    const Vertex hub = order.rank_to_vertex[hub_rank];
    HubLabeling& labels = index_.mutable_served_labels();
    // Forward passes write only in-labels and backward passes only
    // out-labels, so the row stays fixed: L_out(v_i) below the hub's rank
    // is L_out(v_o) shifted, and L_in(v_i) is stored.
    const LabelSet& hub_labels =
        forward ? labels.out[OriginalOf(hub)] : labels.in[OriginalOf(hub)];
    if (forward) {
      row_.LoadShifted(hub_labels.entries(), hub_rank);
    } else {
      row_.Load(hub_labels.entries(), hub_rank);
    }

    queue_.clear();
    dist_[hub] = 0;
    count_[hub] = 1;
    touched_.push_back(hub);
    queue_.push_back(hub);
    size_t head = 0;
    while (head < queue_.size()) {
      Vertex w = DequeueAndPrefetch(queue_, head,
                                    forward ? labels.in : labels.out, 1);
      ++stats_.vertices_visited;
      if (!forward && w == hub) {
        // Modification (3): the root's (v_i, 0, 1) out-label is derived;
        // expand its predecessors (V_out) directly.
        for (Vertex u : graph.InNeighbors(OriginalOf(hub))) {
          Reach(OutVertex(u), 1, 1, hub_rank);
        }
        continue;
      }
      const Vertex v = OriginalOf(w);
      LabelSet& w_labels = forward ? labels.in[v] : labels.out[v];
      // The hub is not the highest on a shortest path.
      if (row_.Join(w_labels.entries()) < dist_[w]) continue;
      Upsert(w_labels, LabelEntry(hub_rank, dist_[w], count_[w]), v, forward);
      // Modification (4): reaching the hub's couple v_o closes a cycle.
      if (w == CoupleOf(hub)) continue;
      // Hop through the couple: w_i -> w_o -> u_i, or w_o <- w_i <- u_o.
      for (Vertex u : forward ? graph.OutNeighbors(v) : graph.InNeighbors(v)) {
        Reach(forward ? InVertex(u) : OutVertex(u), dist_[w] + 2, count_[w],
              hub_rank);
      }
    }
    for (Vertex v : touched_) {
      dist_[v] = kInfDist;
      count_[v] = 0;
    }
    touched_.clear();
    row_.Clear(hub_labels.entries());
  }

 private:
  void Reach(Vertex u, Dist d, Count c, Rank hub_rank) {
    if (dist_[u] == kInfDist) {
      if (hub_rank < index_.bipartite_order().vertex_to_rank[u]) {
        dist_[u] = d;
        count_[u] = c;
        touched_.push_back(u);
        queue_.push_back(u);
      }
    } else if (dist_[u] == d) {
      count_[u] += c;
    }
  }

  // `labels` is L_in(v_i) (forward) or L_out(v_o) of original vertex v.
  void Upsert(LabelSet& labels, LabelEntry entry, Vertex v, bool forward) {
    const LabelEntry* existing = labels.Find(entry.hub());
    if (existing != nullptr && *existing == entry) return;
    if (existing != nullptr) {
      ++stats_.entries_updated;
    } else {
      ++stats_.entries_added;
    }
    labels.InsertOrReplace(entry);
    stats_.MarkDirty(v, forward);
  }

  CscIndex& index_;
  UpdateStats& stats_;
  std::vector<Dist> dist_;
  std::vector<Count> count_;
  std::vector<Vertex> touched_;
  std::vector<Vertex> queue_;
  HubRow row_;
};

}  // namespace

bool RemoveEdge(CscIndex& index, Vertex a, Vertex b, UpdateStats* stats) {
  UpdateStats local;
  local.dirty = stats != nullptr ? stats->dirty : nullptr;
  Timer timer;
  if (a == b || a >= index.num_original_vertices() ||
      b >= index.num_original_vertices()) {
    return false;
  }
  DiGraph& graph = index.mutable_graph();
  if (!graph.HasEdge(a, b)) return false;
  const Vertex ao = OutVertex(a);
  const Vertex bi = InVertex(b);

  // Step 1: pre-deletion distance fields around the edge. A vertex x is an
  // affected source iff its shortest path to b_i runs through (a_o, b_i);
  // y is an affected target iff a_o's shortest path to y does.
  std::vector<Dist> to_ao = BfsDistances(graph, ao, /*forward=*/false);
  std::vector<Dist> from_bi = BfsDistances(graph, bi, /*forward=*/true);
  std::vector<Dist> to_bi = BfsDistances(graph, bi, /*forward=*/false);
  std::vector<Dist> from_ao = BfsDistances(graph, ao, /*forward=*/true);

  std::vector<Vertex> affected_sources;  // the paper's hubA candidates
  std::vector<Vertex> affected_targets;  // the paper's hubB candidates
  for (Vertex x = 0; x < 2 * graph.num_vertices(); ++x) {
    if (to_ao[x] != kInfDist && to_ao[x] + 1 == to_bi[x]) {
      affected_sources.push_back(x);
    }
    if (from_bi[x] != kInfDist && from_bi[x] + 1 == from_ao[x]) {
      affected_targets.push_back(x);
    }
  }

  // Step 2: delete the superset of out-of-date entries. An entry (h, d, c)
  // of L_in(y) is deleted iff d equals the through-edge distance
  // sd(h, a_o) + 1 + sd(b_i, y); symmetrically for L_out(x). Only L_in(y_i)
  // and L_out(x_o) are stored: y_o (x_i) is affected exactly when y_i (x_o)
  // is, legs one step longer, so the derived sets' matching entries are the
  // stored ones' copies. (a_o and b_i are never affected; the b_o cycle
  // entry that can match is one L_out(b_i) does not copy.)
  HubLabeling& labels = index.mutable_served_labels();
  const auto& rank_to_vertex = index.bipartite_order().rank_to_vertex;
  auto delete_matching = [&](Vertex owner, bool in_side) {
    const Vertex v = OriginalOf(owner);
    LabelSet& set = in_side ? labels.in[v] : labels.out[v];
    std::vector<Rank> doomed;
    for (const LabelEntry& e : set.entries()) {
      Vertex hub_vertex = rank_to_vertex[e.hub()];
      Dist hub_leg = in_side ? to_ao[hub_vertex] : from_bi[hub_vertex];
      Dist owner_leg = in_side ? from_bi[owner] : to_ao[owner];
      if (hub_leg == kInfDist || owner_leg == kInfDist) continue;
      if (static_cast<uint64_t>(hub_leg) + 1 + owner_leg == e.dist()) {
        doomed.push_back(e.hub());
      }
    }
    for (Rank r : doomed) {
      set.Remove(r);
      ++local.entries_removed;
      local.MarkDirty(v, in_side);
    }
  };
  for (Vertex y : affected_targets) {
    if (IsInVertex(y)) delete_matching(y, /*in_side=*/true);
  }
  for (Vertex x : affected_sources) {
    if (IsOutVertex(x)) delete_matching(x, /*in_side=*/false);
  }

  graph.RemoveEdge(a, b);

  // Step 3: recovery BFS from every affected V_in hub, highest rank first.
  // Affected sources repair forward (their in-label coverage downstream),
  // affected targets repair backward.
  struct WorkItem {
    Rank hub;
    bool forward;
  };
  std::vector<WorkItem> work;
  const auto& order = index.bipartite_order();
  for (Vertex x : affected_sources) {
    if (IsInVertex(x)) work.push_back({order.vertex_to_rank[x], true});
  }
  for (Vertex y : affected_targets) {
    if (IsInVertex(y)) work.push_back({order.vertex_to_rank[y], false});
  }
  std::stable_sort(work.begin(), work.end(),
                   [](const WorkItem& p, const WorkItem& q) {
                     if (p.hub != q.hub) return p.hub < q.hub;
                     return p.forward && !q.forward;
                   });
  RecoveryPass pass(index, local);
  for (const WorkItem& item : work) {
    ++local.hubs_processed;
    pass.Run(item.hub, item.forward);
  }
  local.seconds = timer.ElapsedSeconds();
  if (stats != nullptr) stats->Accumulate(local);
  return true;
}

}  // namespace csc
