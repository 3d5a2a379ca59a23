#include "labeling/pruned_bfs.h"

#include <span>
#include <vector>

#include "labeling/hub_row.h"
#include "labeling/parallel_build.h"

namespace csc {

namespace {

class PlainBuilder {
 public:
  PlainBuilder(const DiGraph& graph, const VertexOrdering& order,
               HubLabeling& labeling, LabelBuildStats& stats,
               const PrunedBfsOptions& options)
      : graph_(graph),
        order_(order),
        labeling_(labeling),
        stats_(stats),
        options_(options),
        dist_(graph.num_vertices(), kInfDist),
        count_(graph.num_vertices(), 0),
        row_(graph.num_vertices()) {}

  void BuildAll() {
    for (Rank r = 0; r < order_.size(); ++r) {
      Vertex hub = order_.rank_to_vertex[r];
      RunPass(hub, r, /*forward=*/true);
      RunPass(hub, r, /*forward=*/false);
    }
  }

 private:
  // Pruned counting BFS from `hub` (rank `hub_rank`). Forward passes create
  // in-labels of reached vertices; backward passes create out-labels.
  void RunPass(Vertex hub, Rank hub_rank, bool forward) {
    // The row holds L_out(hub) forward and L_in(hub) backward: the set this
    // pass never writes (the backward row is loaded after the forward pass).
    const LabelSet& hub_labels =
        forward ? labeling_.out[hub] : labeling_.in[hub];
    if (options_.distance_pruning) row_.Load(hub_labels.entries());
    // The sets the pass joins and appends to: L_in(w) forward, else L_out(w).
    std::vector<LabelSet>& reached = forward ? labeling_.in : labeling_.out;
    queue_.clear();
    dist_[hub] = 0;
    count_[hub] = 1;
    touched_.push_back(hub);
    queue_.push_back(hub);
    size_t head = 0;
    while (head < queue_.size()) {
      Vertex w = DequeueAndPrefetch(queue_, head, reached);
      ++stats_.vertices_dequeued;
      if (options_.distance_pruning) {
        // Distance-pruning query (Algorithm 3 line 13): the distance hub->w
        // (w->hub when backward) through hubs of strictly higher rank.
        Dist via = row_.Join(reached[w].entries());
        if (via < dist_[w]) {
          ++stats_.pruned_by_distance;
          continue;  // hub is not highest on any shortest path; stop here.
        }
        if (via == dist_[w]) {
          ++stats_.non_canonical_entries;
        } else {
          ++stats_.canonical_entries;
        }
      }
      reached[w].Append(LabelEntry(hub_rank, dist_[w], count_[w]));
      ++stats_.entries;
      const auto& next =
          forward ? graph_.OutNeighbors(w) : graph_.InNeighbors(w);
      for (Vertex wn : next) {
        if (dist_[wn] == kInfDist) {
          if (hub_rank < order_.vertex_to_rank[wn]) {  // rank pruning: hub ≺ wn
            dist_[wn] = dist_[w] + 1;
            count_[wn] = count_[w];
            touched_.push_back(wn);
            queue_.push_back(wn);
          }
        } else if (dist_[wn] == dist_[w] + 1) {
          count_[wn] += count_[w];
        }
      }
    }
    for (Vertex v : touched_) {
      dist_[v] = kInfDist;
      count_[v] = 0;
    }
    touched_.clear();
    if (options_.distance_pruning) row_.Clear(hub_labels.entries());
  }

  const DiGraph& graph_;
  const VertexOrdering& order_;
  HubLabeling& labeling_;
  LabelBuildStats& stats_;
  const PrunedBfsOptions options_;
  std::vector<Dist> dist_;
  std::vector<Count> count_;
  std::vector<Vertex> touched_;
  std::vector<Vertex> queue_;
  HubRow row_;
};

// The parallel counterpart of PlainBuilder, as the hooks of
// RunRankBatchedBuild: Visit is the body of RunPass's dequeue loop, and
// Stored and CountEvent mirror its append and stats logic event by event.
// Its sets stay LabelSets, grown by the framework through AppendToSet.
// See labeling/parallel_build.h for why the result (labels and stats) is
// bit-identical to PlainBuilder.
class ParallelPlainBuilder {
 public:
  static constexpr unsigned kJoinShift = 0;

  ParallelPlainBuilder(const DiGraph& graph, const VertexOrdering& order,
                       HubLabeling& labeling, const PrunedBfsOptions& options)
      : graph_(graph), order_(order), labeling_(labeling), options_(options) {}

  size_t num_vertices() const { return graph_.num_vertices(); }
  // A LabelSet grows in malloc wherever it is appended to: any split does.
  void SplitSets(unsigned, unsigned) {}
  Vertex VertexAt(Rank r) const { return order_.rank_to_vertex[r]; }
  bool IsHub(Vertex) const { return true; }
  void CommitNonHub(Rank, Vertex, LabelBuildStats&) {}
  bool distance_pruning() const { return options_.distance_pruning; }

  // Passes write no labels while they join, so the row holds exactly the
  // committed L_out(hub) (forward) or L_in(hub) (backward) a merge join
  // would read. Clearing reads the set again: the other pass of a two-pass
  // level-split run may have appended to it.
  void LoadRow(const PassKey& p, HubRow& row) const {
    if (options_.distance_pruning) row.Load(RowSet(p));
  }
  void ClearRow(const PassKey& p, HubRow& row) const {
    if (options_.distance_pruning) row.Clear(RowSet(p));
  }

  std::vector<LabelSet>& Sets(bool forward) const {
    return forward ? labeling_.in : labeling_.out;
  }

  template <typename Frontier>
  void Visit(const PassKey& p, Vertex w, Dist d, Count c, const HubRow& row,
             Frontier& frontier) const {
    Dist via = kInfDist;
    if (options_.distance_pruning) {
      via = row.Join(Sets(p.forward)[w].entries());
      if (via < d) {
        frontier.Prune();
        return;
      }
    }
    frontier.Label({w, d, c, via});
    const auto& next =
        p.forward ? graph_.OutNeighbors(w) : graph_.InNeighbors(w);
    for (Vertex wn : next) {
      if (p.rank < order_.vertex_to_rank[wn]) frontier.Relax(wn, d + 1, c);
    }
  }

  // RunPass appends every event's label: to L_in(w) forward, L_out(w)
  // backward.
  bool Stored(const PassKey&, const StagedEvent&) const { return true; }

  void CountEvent(const PassKey&, const StagedEvent& e,
                  LabelBuildStats& stats) const {
    ++stats.entries;
    if (!options_.distance_pruning) return;
    if (e.via_dist == e.dist) {
      ++stats.non_canonical_entries;
    } else {
      ++stats.canonical_entries;
    }
  }

  // A lower batch hub labels L_out(hub) from its backward pass and
  // L_in(hub) from its forward pass, both as direct dequeue events.
  Dist NewOutDist(const StagedHub& lower, Vertex hub) const {
    return lower.bwd.DistAt(hub);
  }
  Dist NewInDist(const StagedHub& lower, Vertex hub) const {
    return lower.fwd.DistAt(hub);
  }

 private:
  std::span<const LabelEntry> RowSet(const PassKey& p) const {
    return (p.forward ? labeling_.out[p.hub] : labeling_.in[p.hub]).entries();
  }

  const DiGraph& graph_;
  const VertexOrdering& order_;
  HubLabeling& labeling_;
  const PrunedBfsOptions options_;
};

}  // namespace

void BuildPlainHubLabeling(const DiGraph& graph, const VertexOrdering& order,
                           HubLabeling& labeling, LabelBuildStats& stats,
                           const PrunedBfsOptions& options) {
  if (options.num_threads == 0) {
    PlainBuilder builder(graph, order, labeling, stats, options);
    builder.BuildAll();
  } else {
    ParallelPlainBuilder builder(graph, order, labeling, options);
    RunRankBatchedBuild(builder, order.size(), options.num_threads, stats);
  }
  stats.build_threads = options.num_threads;
}

}  // namespace csc
