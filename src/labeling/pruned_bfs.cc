#include "labeling/pruned_bfs.h"

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
    if (options_.distance_pruning) row_.Load(hub_labels);
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
        Dist via = row_.Join(reached[w]);
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
    if (options_.distance_pruning) row_.Clear(hub_labels);
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

// The rank-batched parallel counterpart of PlainBuilder: staged passes run
// the same pruned counting BFS against the committed labels, recording
// labeled dequeues instead of appending, and the commit replay mirrors
// RunPass's append/stats logic event by event. See labeling/parallel_build.h
// for why the result (labels and stats) is bit-identical to PlainBuilder.
class ParallelPlainBuilder {
 public:
  struct Scratch {
    std::vector<Dist> dist;
    std::vector<Count> count;
    std::vector<Vertex> touched;
    std::vector<Vertex> queue;
    HubRow row;
  };

  ParallelPlainBuilder(const DiGraph& graph, const VertexOrdering& order,
                       HubLabeling& labeling, LabelBuildStats& stats,
                       const PrunedBfsOptions& options)
      : graph_(graph),
        order_(order),
        labeling_(labeling),
        stats_(stats),
        options_(options) {}

  void InitScratch(Scratch& s) const {
    s.dist.assign(graph_.num_vertices(), kInfDist);
    s.count.assign(graph_.num_vertices(), 0);
    s.row = HubRow(graph_.num_vertices());
    // A pass enqueues each vertex at most once, so staging never grows
    // these on a pool thread.
    s.queue.reserve(graph_.num_vertices());
    s.touched.reserve(graph_.num_vertices());
  }

  Vertex VertexAt(Rank r) const { return order_.rank_to_vertex[r]; }
  bool IsHub(Vertex) const { return true; }
  void CommitNonHub(Rank, Vertex) {}
  bool distance_pruning() const { return options_.distance_pruning; }

  void StagePass(StagedHub& sh, bool forward, Scratch& s) const {
    RunPassStaged(sh.hub, sh.rank, forward, s, forward ? sh.fwd : sh.bwd);
  }

  void Commit(const StagedHub& sh) {
    CommitPass(sh, /*forward=*/true);
    CommitPass(sh, /*forward=*/false);
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
  void RunPassStaged(Vertex hub, Rank hub_rank, bool forward, Scratch& s,
                     StagedPass& out) const {
    // Staging writes no labels, so the row holds exactly the committed
    // L_out(hub) (forward) or L_in(hub) (backward) a merge join would read.
    const LabelSet& hub_labels =
        forward ? labeling_.out[hub] : labeling_.in[hub];
    if (options_.distance_pruning) s.row.Load(hub_labels);
    const std::vector<LabelSet>& reached =
        forward ? labeling_.in : labeling_.out;
    s.queue.clear();
    s.dist[hub] = 0;
    s.count[hub] = 1;
    s.touched.push_back(hub);
    s.queue.push_back(hub);
    size_t head = 0;
    while (head < s.queue.size()) {
      Vertex w = DequeueAndPrefetch(s.queue, head, reached);
      ++out.dequeued;
      Dist via_dist = kInfDist;
      if (options_.distance_pruning) {
        via_dist = s.row.Join(reached[w]);
        if (via_dist < s.dist[w]) {
          ++out.pruned;
          continue;
        }
      }
      out.events.push_back({w, s.dist[w], s.count[w], via_dist});
      const auto& next =
          forward ? graph_.OutNeighbors(w) : graph_.InNeighbors(w);
      for (Vertex wn : next) {
        if (s.dist[wn] == kInfDist) {
          if (hub_rank < order_.vertex_to_rank[wn]) {
            s.dist[wn] = s.dist[w] + 1;
            s.count[wn] = s.count[w];
            s.touched.push_back(wn);
            s.queue.push_back(wn);
          }
        } else if (s.dist[wn] == s.dist[w] + 1) {
          s.count[wn] += s.count[w];
        }
      }
    }
    for (Vertex v : s.touched) {
      s.dist[v] = kInfDist;
      s.count[v] = 0;
    }
    s.touched.clear();
    if (options_.distance_pruning) s.row.Clear(hub_labels);
  }

  void CommitPass(const StagedHub& sh, bool forward) {
    const StagedPass& pass = forward ? sh.fwd : sh.bwd;
    for (const StagedEvent& e : pass.events) {
      if (options_.distance_pruning) {
        if (e.via_dist == e.dist) {
          ++stats_.non_canonical_entries;
        } else {
          ++stats_.canonical_entries;
        }
      }
      LabelSet& target = forward ? labeling_.in[e.w] : labeling_.out[e.w];
      target.Append(LabelEntry(sh.rank, e.dist, e.count));
      ++stats_.entries;
    }
    stats_.vertices_dequeued += pass.dequeued;
    stats_.pruned_by_distance += pass.pruned;
  }

  const DiGraph& graph_;
  const VertexOrdering& order_;
  HubLabeling& labeling_;
  LabelBuildStats& stats_;
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
    ParallelPlainBuilder builder(graph, order, labeling, stats, options);
    RunRankBatchedBuild(builder, order.size(), options.num_threads);
  }
  stats.build_threads = options.num_threads;
}

}  // namespace csc
