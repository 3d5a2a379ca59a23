#include "dynamic/incremental.h"

#include <algorithm>
#include <vector>

#include "dynamic/clean.h"
#include "graph/bipartite.h"
#include "labeling/hub_row.h"
#include "util/timer.h"

namespace csc {

namespace {

/// Runs the resumed counting BFS of Algorithm 6 for one affected hub v_i and
/// one direction, applying UPDATE_LABEL at every reached vertex. It hops
/// couple to couple as Algorithm 3 does: a forward pass dequeues only V_in
/// vertices and updates L_in(w_i), a backward pass only V_out vertices and
/// updates L_out(w_o); the couple's entry one step further is the §IV.E copy
/// the index does not store.
class IncrementalPass {
 public:
  IncrementalPass(CscIndex& index, MaintenanceStrategy strategy,
                  UpdateStats& stats)
      : index_(index),
        strategy_(strategy),
        stats_(stats),
        dist_(2 * index.num_original_vertices(), kInfDist),
        count_(2 * index.num_original_vertices(), 0),
        row_(2 * index.num_original_vertices()) {}

  /// FORWARD_PASS(vk, start, seed_dist, seed_count): repairs in-labels with
  /// hub `vk` downstream of `start` (a V_in vertex). `forward=false` is
  /// BACKWARD_PASS, repairing out-labels upstream of `start` (a V_out
  /// vertex).
  void Run(Rank hub_rank, Vertex start, Dist seed_dist, Count seed_count,
           bool forward) {
    const DiGraph& graph = index_.graph();
    const auto& order = index_.bipartite_order();
    const Vertex hub = order.rank_to_vertex[hub_rank];
    HubLabeling& labels = index_.mutable_served_labels();
    // The row holds L_out(v_i) (forward: L_out(v_o) shifted, below the hub's
    // rank) or L_in(v_i) (backward). Neither set changes during the pass:
    // its writes and cleaning reach only other sets and hubs ranked after
    // v_i, which the row's set does not hold.
    const LabelSet& hub_labels =
        forward ? labels.out[OriginalOf(hub)] : labels.in[OriginalOf(hub)];
    if (forward) {
      row_.LoadShifted(hub_labels.entries(), hub_rank);
    } else {
      row_.Load(hub_labels.entries());
    }

    queue_.clear();
    dist_[start] = seed_dist;
    count_[start] = seed_count;
    touched_.push_back(start);
    queue_.push_back(start);
    size_t head = 0;
    while (head < queue_.size()) {
      Vertex w = queue_[head++];
      ++stats_.vertices_visited;
      LabelSet& w_labels =
          forward ? labels.in[OriginalOf(w)] : labels.out[OriginalOf(w)];
      // Distance under the current index; forward, L_out(v_i)'s own
      // (v_i, 0, 1) meets w's hub-v_i entry outside the row.
      Dist via = row_.Join(w_labels.entries());
      const LabelEntry* existing = w_labels.Find(hub_rank);
      if (forward && existing != nullptr) {
        via = std::min(via, existing->dist());
      }
      if (dist_[w] > via) continue;  // Case 1: not through the new edge
      UpdateLabel(w_labels, existing, hub_rank, w, forward);
      // Modification (4): reaching the hub's couple v_o closes a cycle.
      if (w == CoupleOf(hub)) continue;
      // Hop through the couple: w_i -> w_o -> u_i, or w_o <- w_i <- u_o.
      const Vertex v = OriginalOf(w);
      for (Vertex x : forward ? graph.OutNeighbors(v) : graph.InNeighbors(v)) {
        const Vertex u = forward ? InVertex(x) : OutVertex(x);
        if (dist_[u] > dist_[w] + 2) {
          if (hub_rank < order.vertex_to_rank[u]) {  // rank pruning
            if (dist_[u] == kInfDist) touched_.push_back(u);
            dist_[u] = dist_[w] + 2;
            count_[u] = count_[w];
            queue_.push_back(u);
          }
        } else if (dist_[u] == dist_[w] + 2) {
          count_[u] += count_[w];  // Case 2: one more same-length path
        }
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
  // UPDATE_LABEL (Algorithm 7) at dequeued w on `labels`, L_in(w_i)
  // (forward) or L_out(w_o) (backward), whose hub-vk entry is `existing`.
  void UpdateLabel(LabelSet& labels, const LabelEntry* existing,
                   Rank hub_rank, Vertex w, bool forward) {
    const Vertex v = OriginalOf(w);
    const Dist d = dist_[w];
    const Count c = count_[w];
    bool needs_clean = false;
    if (existing != nullptr) {
      if (d < existing->dist()) {
        labels.InsertOrReplace(LabelEntry(hub_rank, d, c));
        ++stats_.entries_updated;
        stats_.MarkDirty(v, forward);
        needs_clean = true;
      } else if (d == existing->dist()) {
        // New same-length shortest paths through the inserted edge: the BFS
        // counts only paths through it, so accumulation cannot double-count.
        labels.InsertOrReplace(
            LabelEntry(hub_rank, d, existing->count() + c));
        ++stats_.entries_updated;
        stats_.MarkDirty(v, forward);
      }
      // d > existing->dist(): the label already beats the new paths; the
      // caller pruned such vertices, but stay defensive.
    } else {
      labels.InsertOrReplace(LabelEntry(hub_rank, d, c));
      ++stats_.entries_added;
      stats_.MarkDirty(v, forward);
      if (index_.has_inverted_index()) {
        (forward ? index_.mutable_inv_in() : index_.mutable_inv_out())
            .Add(hub_rank, v);
      }
      needs_clean = true;
    }
    if (needs_clean && strategy_ == MaintenanceStrategy::kMinimality) {
      if (forward) {
        CleanAfterInLabelChange(index_, v, stats_);
      } else {
        CleanAfterOutLabelChange(index_, v, stats_);
      }
    }
  }

  CscIndex& index_;
  const MaintenanceStrategy strategy_;
  UpdateStats& stats_;
  std::vector<Dist> dist_;
  std::vector<Count> count_;
  std::vector<Vertex> touched_;
  std::vector<Vertex> queue_;
  HubRow row_;
};

}  // namespace

bool InsertEdge(CscIndex& index, Vertex a, Vertex b,
                MaintenanceStrategy strategy, UpdateStats* stats) {
  UpdateStats local;
  local.strategy = strategy;
  local.dirty = stats != nullptr ? stats->dirty : nullptr;
  Timer timer;
  if (a == b || a >= index.num_original_vertices() ||
      b >= index.num_original_vertices()) {
    return false;
  }
  if (!index.mutable_graph().AddEdge(a, b)) return false;
  const Vertex ao = OutVertex(a);
  const Vertex bi = InVertex(b);
  if (strategy == MaintenanceStrategy::kMinimality) {
    index.EnsureInvertedIndexes();
  }

  // Definition V.1: affected hubs are the hubs of L_in(a_o) and L_out(b_i).
  // Gather (rank, seed distance, seed count, direction) work items; the seed
  // is the hub's own label entry (Theorem V.1: use the label's count, which
  // counts only hub-highest paths, not the full SPCnt).
  struct WorkItem {
    Rank hub;
    Dist dist;
    Count count;
    bool forward;
  };
  std::vector<WorkItem> work;
  const auto& order = index.bipartite_order();
  const Rank rank_ao = order.vertex_to_rank[ao];
  const Rank rank_bi = order.vertex_to_rank[bi];
  const HubLabeling& labels = index.served_labels();
  // Both sets are derived ones, read through the §IV.E identity. Only
  // V_in vertices act as hubs, mirroring couple-vertex skipping (on any
  // v_o -> v_i path the couple v_i outranks v_o, so the highest-ranked
  // vertex is always from V_in); that leaves out a_o's own self entry.
  //   L_in(a_o)  = shift(L_in(a_i)) ∪ {(a_o, 0, 1)}
  //   L_out(b_i) = shift(L_out(b_o) \ {hub b_i, hub b_o}) ∪ {(b_i, 0, 1)}
  for (const LabelEntry& e : labels.in[a].entries()) {
    if (e.hub() < rank_bi) {
      work.push_back({e.hub(), e.dist() + 1, e.count(), /*forward=*/true});
    }
  }
  for (const LabelEntry& e : labels.out[b].entries()) {
    if (e.hub() < rank_ao && IsInVertex(order.rank_to_vertex[e.hub()]) &&
        e.hub() != rank_bi) {
      work.push_back({e.hub(), e.dist() + 1, e.count(), /*forward=*/false});
    }
  }
  if (rank_bi < rank_ao) work.push_back({rank_bi, 0, 1, /*forward=*/false});
  // Descending rank order = ascending rank value; ties (a hub in both sets)
  // run the forward pass first, matching Algorithm 5's loop body order.
  std::stable_sort(work.begin(), work.end(),
                   [](const WorkItem& x, const WorkItem& y) {
                     if (x.hub != y.hub) return x.hub < y.hub;
                     return x.forward && !y.forward;
                   });

  IncrementalPass pass(index, strategy, local);
  for (const WorkItem& item : work) {
    ++local.hubs_processed;
    // Forward: new paths hub -> a_o -> b_i -> ...; resume at b_i with
    // distance d(hub, a_o) + 1. Backward: mirror from a_o.
    pass.Run(item.hub, item.forward ? bi : ao, item.dist + 1, item.count,
             item.forward);
  }
  local.seconds = timer.ElapsedSeconds();
  if (stats != nullptr) {
    stats->Accumulate(local);
    stats->strategy = strategy;
  }
  return true;
}

}  // namespace csc
