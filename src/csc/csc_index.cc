#include "csc/csc_index.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "labeling/hub_row.h"
#include "labeling/parallel_build.h"
#include "labeling/pruned_bfs.h"
#include "util/timer.h"

namespace csc {

namespace {

/// Algorithm 3: per-hub pruned counting BFS over G_b with couple-vertex
/// skipping. Only V_in vertices act as hubs; forward passes hop
/// V_in -> V_in (through the dequeued vertex's couple) and backward passes
/// hop V_out -> V_out, labeling each reached vertex together with its couple.
///
/// Only the labels of the dequeued side are appended: L_in(w_i) by forward
/// passes, L_out(w_o) by backward passes, and L_out(v_o) for a couple
/// vertex's trivial label. The couple's label (L_in(w_o) or L_out(w_i), one
/// step further) and the root's own (v_i, 0, 1) out-label are the §IV.E
/// copies DeriveCoupleLabels restores after construction; the stats count
/// them as if appended. Every pruning join reads only written sets, except
/// the forward pass's hub row L_out(v_i), which loads shifted from L_out(v_o).
class CoupleSkipBuilder {
 public:
  CoupleSkipBuilder(const DiGraph& bipartite, const VertexOrdering& order,
                    HubLabeling& labeling, LabelBuildStats& stats,
                    bool distance_pruning)
      : graph_(bipartite),
        order_(order),
        labeling_(labeling),
        stats_(stats),
        distance_pruning_(distance_pruning),
        dist_(bipartite.num_vertices(), kInfDist),
        count_(bipartite.num_vertices(), 0),
        row_(bipartite.num_vertices()) {}

  void BuildAll() {
    for (Rank r = 0; r < order_.size(); ++r) {
      Vertex v = order_.rank_to_vertex[r];
      if (IsOutVertex(v)) {
        // Couple-vertex skipping: v_o never roots a BFS; it only records its
        // own trivial labels (Algorithm 3 lines 6-8). The in-label is a
        // derived one.
        labeling_.out[v].Append(LabelEntry(r, 0, 1));
        stats_.entries += 2;
        stats_.canonical_entries += 2;
        continue;
      }
      ForwardPass(v, r);
      BackwardPass(v, r);
    }
  }

 private:
  // In-label generation for hub v_i (rank hr). Dequeued vertices are always
  // from V_in; the couple w_o trails at distance +1 (a derived entry).
  void ForwardPass(Vertex hub, Rank hr) {
    // Forward passes write only in-labels, so L_out(hub) is fixed here: it
    // is L_out(couple) shifted, below the hub's rank.
    const LabelSet& couple_out = labeling_.out[CoupleOf(hub)];
    if (distance_pruning_) row_.LoadShifted(couple_out, hr);
    queue_.clear();
    dist_[hub] = 0;
    count_[hub] = 1;
    touched_.push_back(hub);
    queue_.push_back(hub);
    size_t head = 0;
    while (head < queue_.size()) {
      Vertex w = queue_[head++];
      ++stats_.vertices_dequeued;
      if (distance_pruning_) {
        Dist via = row_.Join(labeling_.in[w]);
        if (via < dist_[w]) {
          ++stats_.pruned_by_distance;
          continue;
        }
        if (via == dist_[w]) {
          stats_.non_canonical_entries += 2;
        } else {
          stats_.canonical_entries += 2;
        }
      }
      // INSERT_LABEL (Algorithm 4): label w and its couple w_o at +1. The
      // couple's distance/count are exactly w's shifted because w_o's only
      // in-edge is the couple edge (w_i, w_o), so its entry is derived.
      Vertex couple = CoupleOf(w);
      labeling_.in[w].Append(LabelEntry(hr, dist_[w], count_[w]));
      stats_.entries += 2;
      for (Vertex wn : graph_.OutNeighbors(couple)) {  // wn ∈ V_in
        if (dist_[wn] == kInfDist) {
          if (hr < order_.vertex_to_rank[wn]) {  // rank pruning: hub ≺ wn
            dist_[wn] = dist_[w] + 2;
            count_[wn] = count_[w];
            touched_.push_back(wn);
            queue_.push_back(wn);
          }
        } else if (dist_[wn] == dist_[w] + 2) {
          count_[wn] += count_[w];
        }
      }
    }
    ResetScratch();
    if (distance_pruning_) row_.Clear(couple_out);
  }

  // Out-label generation for hub v_i (rank hr), running over the reverse
  // direction of G_b. After the root, dequeued vertices are always from
  // V_out; the couple w_i trails at distance +1.
  void BackwardPass(Vertex hub, Rank hr) {
    // Backward passes write only out-labels; L_in(hub) is loaded after the
    // forward pass finished, so it holds what the merge join would read.
    if (distance_pruning_) row_.Load(labeling_.in[hub]);
    queue_.clear();
    dist_[hub] = 0;
    count_[hub] = 1;
    touched_.push_back(hub);
    queue_.push_back(hub);
    size_t head = 0;
    while (head < queue_.size()) {
      Vertex w = queue_[head++];
      ++stats_.vertices_dequeued;
      if (w == hub) {
        // Modification (3) of §IV.C: the root only records (v, 0, 1) in its
        // own out-label (a derived one), then expands its predecessors
        // directly (the couple v_o is v's successor, not predecessor, so no
        // couple step here).
        ++stats_.entries;
        ++stats_.canonical_entries;
        for (Vertex wn : graph_.InNeighbors(hub)) {  // wn ∈ V_out
          if (hr < order_.vertex_to_rank[wn]) {
            dist_[wn] = 1;
            count_[wn] = 1;
            touched_.push_back(wn);
            queue_.push_back(wn);
          }
        }
        continue;
      }
      bool is_hub_couple = (w == CoupleOf(hub));
      if (distance_pruning_) {
        Dist via = row_.Join(labeling_.out[w]);
        if (via < dist_[w]) {
          ++stats_.pruned_by_distance;
          continue;
        }
        uint64_t produced = is_hub_couple ? 1 : 2;
        if (via == dist_[w]) {
          stats_.non_canonical_entries += produced;
        } else {
          stats_.canonical_entries += produced;
        }
      }
      labeling_.out[w].Append(LabelEntry(hr, dist_[w], count_[w]));
      ++stats_.entries;
      if (is_hub_couple) {
        // Modification (4) of §IV.C: reaching the hub's own couple v_o means
        // a cycle through v closed. Record it in L_out(v_o) — this is the
        // entry SCCnt queries hit — but do not propagate to the couple
        // (that would be the hub itself) and prune the expansion, since any
        // continuation walks through the hub and is covered by its labels.
        continue;
      }
      // The couple w_i's entry, one step further, is derived.
      Vertex couple = CoupleOf(w);  // w_i
      ++stats_.entries;
      for (Vertex wn : graph_.InNeighbors(couple)) {  // wn ∈ V_out
        if (dist_[wn] == kInfDist) {
          if (hr < order_.vertex_to_rank[wn]) {
            dist_[wn] = dist_[w] + 2;
            count_[wn] = count_[w];
            touched_.push_back(wn);
            queue_.push_back(wn);
          }
        } else if (dist_[wn] == dist_[w] + 2) {
          count_[wn] += count_[w];
        }
      }
    }
    ResetScratch();
    if (distance_pruning_) row_.Clear(labeling_.in[hub]);
  }

  void ResetScratch() {
    for (Vertex v : touched_) {
      dist_[v] = kInfDist;
      count_[v] = 0;
    }
    touched_.clear();
  }

  const DiGraph& graph_;
  const VertexOrdering& order_;
  HubLabeling& labeling_;
  LabelBuildStats& stats_;
  const bool distance_pruning_;
  std::vector<Dist> dist_;
  std::vector<Count> count_;
  std::vector<Vertex> touched_;
  std::vector<Vertex> queue_;
  HubRow row_;
};

/// The rank-batched parallel counterpart of CoupleSkipBuilder (see
/// labeling/parallel_build.h for the staging/validation/commit scheme).
/// Staged passes run exactly ForwardPass/BackwardPass against the committed
/// labels, recording labeled dequeues instead of appending; the commit
/// replay re-applies INSERT_LABEL (Algorithm 4) to the same two written
/// label sets and the canonical/non-canonical classification from the
/// validated via distances, so labels and stats are bit-identical to the
/// sequential builder at any thread count.
class ParallelCoupleSkipBuilder {
 public:
  struct Scratch {
    std::vector<Dist> dist;
    std::vector<Count> count;
    std::vector<Vertex> touched;
    std::vector<Vertex> queue;
    HubRow row;
  };

  ParallelCoupleSkipBuilder(const DiGraph& bipartite,
                            const VertexOrdering& order, HubLabeling& labeling,
                            LabelBuildStats& stats, bool distance_pruning)
      : graph_(bipartite),
        order_(order),
        labeling_(labeling),
        stats_(stats),
        distance_pruning_(distance_pruning) {}

  void InitScratch(Scratch& s) const {
    s.dist.assign(graph_.num_vertices(), kInfDist);
    s.count.assign(graph_.num_vertices(), 0);
    s.row = HubRow(graph_.num_vertices());
    // A pass enqueues each vertex at most once, so staging never grows
    // these on a pool thread.
    s.queue.reserve(graph_.num_vertices());
    s.touched.reserve(graph_.num_vertices());
  }

  // Couple-vertex skipping: only V_in vertices root BFSs; a V_out rank
  // records its own trivial labels at commit time (Algorithm 3 lines 6-8).
  bool IsHub(Vertex v) const { return IsInVertex(v); }

  void CommitNonHub(Rank r, Vertex v) {
    labeling_.out[v].Append(LabelEntry(r, 0, 1));
    stats_.entries += 2;
    stats_.canonical_entries += 2;
  }

  bool distance_pruning() const { return distance_pruning_; }

  void StagePass(StagedHub& sh, bool forward, Scratch& s) const {
    if (forward) {
      StageForward(sh, s);
      sh.fwd.Finalize();
    } else {
      StageBackward(sh, s);
      sh.bwd.Finalize();
    }
  }

  void Commit(const StagedHub& sh) {
    CommitForward(sh);
    CommitBackward(sh);
  }

  // A lower batch hub h reaches L_out(hub) only through the couple entry
  // of its backward pass — dequeuing couple(hub) at distance d gives hub a
  // (derived) entry at d + 1, which the shifted hub row sees. (hub is a
  // V_in vertex: backward passes dequeue V_out vertices, h's root entry
  // belongs to h itself, and the hub-couple suppression cannot apply since
  // couple(hub) == couple(h) would mean hub == h.)
  Dist NewOutDist(const StagedHub& lower, Vertex hub) const {
    Dist d = lower.bwd.DistAt(CoupleOf(hub));
    return d == kInfDist ? kInfDist : d + 1;
  }

  // ...and L_in(hub) only through the direct dequeue of its forward pass
  // (forward couple appends target V_out vertices).
  Dist NewInDist(const StagedHub& lower, Vertex hub) const {
    return lower.fwd.DistAt(hub);
  }

 private:
  void StageForward(StagedHub& sh, Scratch& s) const {
    const Vertex hub = sh.hub;
    const Rank hr = sh.rank;
    // Staging writes no labels, so the row holds exactly the committed
    // L_out(hub) a merge join would read: L_out(couple) shifted, below the
    // hub's rank.
    const LabelSet& couple_out = labeling_.out[CoupleOf(hub)];
    if (distance_pruning_) s.row.LoadShifted(couple_out, hr);
    s.queue.clear();
    s.dist[hub] = 0;
    s.count[hub] = 1;
    s.touched.push_back(hub);
    s.queue.push_back(hub);
    size_t head = 0;
    while (head < s.queue.size()) {
      Vertex w = s.queue[head++];
      ++sh.fwd.dequeued;
      Dist via_dist = kInfDist;
      if (distance_pruning_) {
        via_dist = s.row.Join(labeling_.in[w]);
        if (via_dist < s.dist[w]) {
          ++sh.fwd.pruned;
          continue;
        }
      }
      sh.fwd.events.push_back({w, s.dist[w], s.count[w], via_dist});
      Vertex couple = CoupleOf(w);
      for (Vertex wn : graph_.OutNeighbors(couple)) {  // wn ∈ V_in
        if (s.dist[wn] == kInfDist) {
          if (hr < order_.vertex_to_rank[wn]) {  // rank pruning: hub ≺ wn
            s.dist[wn] = s.dist[w] + 2;
            s.count[wn] = s.count[w];
            s.touched.push_back(wn);
            s.queue.push_back(wn);
          }
        } else if (s.dist[wn] == s.dist[w] + 2) {
          s.count[wn] += s.count[w];
        }
      }
    }
    ResetScratch(s);
    if (distance_pruning_) s.row.Clear(couple_out);
  }

  void StageBackward(StagedHub& sh, Scratch& s) const {
    const Vertex hub = sh.hub;
    const Rank hr = sh.rank;
    // Staging writes no labels, so the row holds exactly the committed
    // L_in(hub) a merge join would read.
    if (distance_pruning_) s.row.Load(labeling_.in[hub]);
    s.queue.clear();
    s.dist[hub] = 0;
    s.count[hub] = 1;
    s.touched.push_back(hub);
    s.queue.push_back(hub);
    size_t head = 0;
    while (head < s.queue.size()) {
      Vertex w = s.queue[head++];
      ++sh.bwd.dequeued;
      if (w == hub) {
        // Modification (3) of §IV.C: the root records only its own
        // out-label and expands predecessors directly — never
        // distance-checked, mirrored by ValidateStagedHub skipping it.
        sh.bwd.events.push_back({hub, 0, 1, kInfDist});
        for (Vertex wn : graph_.InNeighbors(hub)) {  // wn ∈ V_out
          if (hr < order_.vertex_to_rank[wn]) {
            s.dist[wn] = 1;
            s.count[wn] = 1;
            s.touched.push_back(wn);
            s.queue.push_back(wn);
          }
        }
        continue;
      }
      Dist via_dist = kInfDist;
      if (distance_pruning_) {
        via_dist = s.row.Join(labeling_.out[w]);
        if (via_dist < s.dist[w]) {
          ++sh.bwd.pruned;
          continue;
        }
      }
      sh.bwd.events.push_back({w, s.dist[w], s.count[w], via_dist});
      if (w == CoupleOf(hub)) continue;  // modification (4): cycle closed
      Vertex couple = CoupleOf(w);  // w_i
      for (Vertex wn : graph_.InNeighbors(couple)) {  // wn ∈ V_out
        if (s.dist[wn] == kInfDist) {
          if (hr < order_.vertex_to_rank[wn]) {
            s.dist[wn] = s.dist[w] + 2;
            s.count[wn] = s.count[w];
            s.touched.push_back(wn);
            s.queue.push_back(wn);
          }
        } else if (s.dist[wn] == s.dist[w] + 2) {
          s.count[wn] += s.count[w];
        }
      }
    }
    ResetScratch(s);
    if (distance_pruning_) s.row.Clear(labeling_.in[hub]);
  }

  void CommitForward(const StagedHub& sh) {
    for (const StagedEvent& e : sh.fwd.events) {
      if (distance_pruning_) {
        if (e.via_dist == e.dist) {
          stats_.non_canonical_entries += 2;
        } else {
          stats_.canonical_entries += 2;
        }
      }
      // INSERT_LABEL (Algorithm 4): label w; its couple w_o's entry at +1
      // is derived.
      labeling_.in[e.w].Append(LabelEntry(sh.rank, e.dist, e.count));
      stats_.entries += 2;
    }
    stats_.vertices_dequeued += sh.fwd.dequeued;
    stats_.pruned_by_distance += sh.fwd.pruned;
  }

  void CommitBackward(const StagedHub& sh) {
    for (const StagedEvent& e : sh.bwd.events) {
      if (e.w == sh.hub) {  // the root's (v, 0, 1), a derived entry
        ++stats_.entries;
        ++stats_.canonical_entries;
        continue;
      }
      bool is_hub_couple = (e.w == CoupleOf(sh.hub));
      if (distance_pruning_) {
        uint64_t produced = is_hub_couple ? 1 : 2;
        if (e.via_dist == e.dist) {
          stats_.non_canonical_entries += produced;
        } else {
          stats_.canonical_entries += produced;
        }
      }
      labeling_.out[e.w].Append(LabelEntry(sh.rank, e.dist, e.count));
      ++stats_.entries;
      if (is_hub_couple) continue;
      ++stats_.entries;  // the couple w_i's derived entry at +1
    }
    stats_.vertices_dequeued += sh.bwd.dequeued;
    stats_.pruned_by_distance += sh.bwd.pruned;
  }

  void ResetScratch(Scratch& s) const {
    for (Vertex v : s.touched) {
      s.dist[v] = kInfDist;
      s.count[v] = 0;
    }
    s.touched.clear();
  }

  const DiGraph& graph_;
  const VertexOrdering& order_;
  HubLabeling& labeling_;
  LabelBuildStats& stats_;
  const bool distance_pruning_;
};

// Hub ranks must fit LabelEntry's 23-bit field; G_b has 2n vertices.
void CheckVertexRange(Vertex num_original_vertices) {
  if (2ull * num_original_vertices > LabelEntry::kMaxHub + 1) {
    std::fprintf(stderr,
                 "csc: graph too large for the 23-bit label encoding "
                 "(%u vertices, limit %llu)\n",
                 num_original_vertices,
                 static_cast<unsigned long long>((LabelEntry::kMaxHub + 1) /
                                                 2));
    std::abort();
  }
}

void PopulateInvertedIndexes(const HubLabeling& labeling, InvertedIndex& inv_in,
                             InvertedIndex& inv_out) {
  inv_in.BuildFrom(labeling, LabelDirection::kIn);
  inv_out.BuildFrom(labeling, LabelDirection::kOut);
}

}  // namespace

CscIndex CscIndex::BuildServedLabels(const DiGraph& graph,
                                     const VertexOrdering& order,
                                     const Options& options) {
  CheckVertexRange(graph.num_vertices() + options.reserve_vertices);
  CscIndex index;
  index.options_ = options;
  if (options.reserve_vertices > 0) {
    // Reserved vertices are isolated and ranked below every real vertex, so
    // they cost two self-labels each and never perturb existing labels.
    DiGraph extended = graph;
    Vertex first = extended.AddVertices(options.reserve_vertices);
    VertexOrdering extended_order = order;
    for (Vertex v = first; v < extended.num_vertices(); ++v) {
      extended_order.rank_to_vertex.push_back(v);
      extended_order.vertex_to_rank.push_back(
          static_cast<Rank>(extended_order.rank_to_vertex.size() - 1));
    }
    index.bipartite_ = BipartiteConversion(extended);
    index.order_ = BipartiteOrdering(extended_order);
  } else {
    index.bipartite_ = BipartiteConversion(graph);
    index.order_ = BipartiteOrdering(order);
  }
  index.labeling_.Resize(index.bipartite_.num_vertices());
  Timer timer;
  if (options.build_threads == 0) {
    CoupleSkipBuilder builder(index.bipartite_, index.order_, index.labeling_,
                              index.stats_, /*distance_pruning=*/true);
    builder.BuildAll();
  } else {
    ParallelCoupleSkipBuilder builder(index.bipartite_, index.order_,
                                      index.labeling_, index.stats_,
                                      /*distance_pruning=*/true);
    ParallelBuildPlan plan;
    plan.num_threads = options.build_threads;
    RunRankBatchedBuild(builder, index.order_, plan);
  }
  index.stats_.seconds = timer.ElapsedSeconds();
  index.stats_.build_threads = options.build_threads;
  return index;
}

CscIndex CscIndex::Build(const DiGraph& graph, const VertexOrdering& order,
                         const Options& options) {
  CscIndex index = BuildServedLabels(graph, order, options);
  Timer timer;
  DeriveCoupleLabels(index.order_.vertex_to_rank, index.labeling_);
  index.stats_.seconds += timer.ElapsedSeconds();
  if (options.maintain_inverted_index) {
    PopulateInvertedIndexes(index.labeling_, index.inv_in_, index.inv_out_);
  }
  return index;
}

void CscIndex::EnsureInvertedIndexes() {
  if (options_.maintain_inverted_index) return;
  PopulateInvertedIndexes(labeling_, inv_in_, inv_out_);
  options_.maintain_inverted_index = true;
}

CycleCount CscIndex::Query(Vertex v) const {
  // SCCnt(v) = SPCnt(v_o, v_i) in G_b (§IV.D); a v_o -> v_i distance d in
  // G_b corresponds to a cycle of length (d + 1) / 2 in the original graph.
  JoinResult r = labeling_.Query(OutVertex(v), InVertex(v));
  if (r.dist == kInfDist) return {};
  return {(r.dist + 1) / 2, r.count};
}

CycleCount CscIndex::QueryThroughEdge(Vertex u, Vertex v) const {
  if (u == v || u >= num_original_vertices() ||
      v >= num_original_vertices()) {
    return {};
  }
  // A cycle through (u, v) is the edge plus a shortest path v -> u, and no
  // shortest v -> u path can contain the edge itself (it would revisit u).
  // A length-k original path is a length 2k-1 walk v_o -> u_i in G_b, so
  // sd(v, u) = (d + 1) / 2 and the cycle adds 1 for the edge.
  //
  // Couple-vertex skipping makes one correction necessary: hubs are V_in
  // vertices only, so paths on which the *start* v_o is the highest-ranked
  // vertex have no covering hub in the plain join. Exactly those paths are
  // the ones label (v_i, d+1, c) in L_in(u_i) counts — v_i's sole out-edge
  // is the couple edge, so v_i-paths are v_o-paths shifted by one, and v_i
  // outranks the path precisely when v_o does. Merging that entry restores
  // the exact all-pairs count with no double counting.
  JoinResult r = labeling_.Query(OutVertex(v), InVertex(u));
  const LabelEntry* couple_entry =
      labeling_.in[InVertex(u)].Find(order_.vertex_to_rank[InVertex(v)]);
  if (couple_entry != nullptr) {
    Dist d = couple_entry->dist() - 1;
    if (d < r.dist) {
      r.dist = d;
      r.count = couple_entry->count();
    } else if (d == r.dist) {
      r.count += couple_entry->count();
    }
  }
  if (r.dist == kInfDist) return {};
  return {(r.dist + 1) / 2 + 1, r.count};
}

CscIndex BuildCscAblation(const DiGraph& graph, const VertexOrdering& order,
                          const CscAblationConfig& config) {
  CscIndex index;
  index.bipartite_ = BipartiteConversion(graph);
  index.order_ = BipartiteOrdering(order);
  index.labeling_.Resize(index.bipartite_.num_vertices());
  Timer timer;
  if (config.disable_couple_skipping) {
    PrunedBfsOptions options;
    options.distance_pruning = !config.disable_distance_pruning;
    BuildPlainHubLabeling(index.bipartite_, index.order_, index.labeling_,
                          index.stats_, options);
  } else {
    CoupleSkipBuilder builder(index.bipartite_, index.order_, index.labeling_,
                              index.stats_,
                              !config.disable_distance_pruning);
    builder.BuildAll();
    DeriveCoupleLabels(index.order_.vertex_to_rank, index.labeling_);
  }
  index.stats_.seconds = timer.ElapsedSeconds();
  return index;
}

void DeriveCoupleLabels(const std::vector<Rank>& vertex_to_rank,
                        HubLabeling& labeling) {
  const Vertex n = static_cast<Vertex>(labeling.num_vertices() / 2);
  for (Vertex v = 0; v < n; ++v) {
    const Vertex vi = InVertex(v);
    const Vertex vo = OutVertex(v);
    const Rank rank_vi = vertex_to_rank[vi];
    const Rank rank_vo = vertex_to_rank[vo];
    assert(labeling.in[vo].empty() && labeling.out[vi].empty());
    // L_in(v_o) = shift(L_in(v_i)) ∪ {(v_o, 0, 1)}. Every hub of L_in(v_i)
    // ranks at or above v_i, hence strictly above v_o, so the self entry
    // appends in sorted position.
    LabelSet& in_vo = labeling.in[vo];
    in_vo.Reserve(labeling.in[vi].size() + 1);
    for (const LabelEntry& e : labeling.in[vi].entries()) {
      in_vo.Append(LabelEntry(e.hub(), e.dist() + 1, e.count()));
    }
    in_vo.Append(LabelEntry(rank_vo, 0, 1));
    // L_out(v_i) = shift(L_out(v_o) minus the v_i-hub cycle entry and the
    // v_o self entry) ∪ {(v_i, 0, 1)}.
    LabelSet& out_vi = labeling.out[vi];
    out_vi.Reserve(labeling.out[vo].size() + 1);
    for (const LabelEntry& e : labeling.out[vo].entries()) {
      if (e.hub() == rank_vi || e.hub() == rank_vo) continue;
      out_vi.Append(LabelEntry(e.hub(), e.dist() + 1, e.count()));
    }
    out_vi.Append(LabelEntry(rank_vi, 0, 1));
  }
}

}  // namespace csc
