#include "csc/csc_index.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "csc/couple_builders.h"
#include "labeling/hub_row.h"
#include "util/timer.h"

namespace csc {

namespace {

/// Algorithm 3: per-hub pruned counting BFS over G_b with couple-vertex
/// skipping, walking the ranked CSR (vertex ids are bipartite ranks). Only
/// V_in vertices act as hubs; forward passes hop V_in -> V_in (through the
/// dequeued vertex's couple) and backward passes hop V_out -> V_out,
/// labeling each reached vertex together with its couple.
///
/// Only the labels of the dequeued side are appended: L_in(w_i) by forward
/// passes, L_out(w_o) by backward passes, and L_out(v_o) for a couple
/// vertex's trivial label. The couple's label (L_in(w_o) or L_out(w_i), one
/// step further) and the root's own (v_i, 0, 1) out-label are the §IV.E
/// copies the index never stores; the stats count them as if appended.
/// Every pruning join reads only written sets, except the forward pass's hub
/// row L_out(v_i), which loads shifted from L_out(v_o).
class CoupleSkipBuilder {
 public:
  CoupleSkipBuilder(const RankedCsr& graph, LabelStore& in, LabelStore& out,
                    LabelBuildStats& stats, bool distance_pruning)
      : graph_(graph),
        in_(in),
        out_(out),
        stats_(stats),
        distance_pruning_(distance_pruning),
        dist_(graph.num_ranks(), kInfDist),
        count_(graph.num_ranks(), 0),
        row_(graph.num_ranks()) {}

  void BuildAll() {
    for (Rank r = 0; r < graph_.num_ranks(); ++r) {
      if (IsOutVertex(r)) {
        // Couple-vertex skipping: v_o never roots a BFS; it only records its
        // own trivial labels (Algorithm 3 lines 6-8). The in-label is a
        // derived one.
        out_.Append(r >> 1, LabelEntry(r, 0, 1));
        stats_.entries += 2;
        stats_.canonical_entries += 2;
        continue;
      }
      ForwardPass(r);
      BackwardPass(r);
    }
  }

 private:
  // In-label generation for hub v_i (rank hr). Dequeued vertices are always
  // from V_in; the couple w_o trails at distance +1 (a derived entry).
  void ForwardPass(Rank hr) {
    // Forward passes write only in-labels, so L_out(hub) is fixed here: it
    // is L_out(couple) shifted, below the hub's rank.
    const std::span<const LabelEntry> couple_out = out_[hr >> 1];
    if (distance_pruning_) row_.LoadShifted(couple_out, hr);
    queue_.clear();
    dist_[hr] = 0;
    count_[hr] = 1;
    touched_.push_back(hr);
    queue_.push_back(hr);
    size_t head = 0;
    while (head < queue_.size()) {
      Rank w = DequeueAndPrefetch(queue_, head, in_, 1);
      ++stats_.vertices_dequeued;
      if (distance_pruning_) {
        Dist via = row_.Join(in_[w >> 1]);
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
      in_.Append(w >> 1, LabelEntry(hr, dist_[w], count_[w]));
      stats_.entries += 2;
      for (Rank wn : graph_.Successors(w)) {  // wn ∈ V_in
        if (dist_[wn] == kInfDist) {
          if (hr < wn) {  // rank pruning: hub ≺ wn
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
  void BackwardPass(Rank hr) {
    // Backward passes write only out-labels; L_in(hub) is loaded after the
    // forward pass finished, so it holds what the merge join would read.
    if (distance_pruning_) row_.Load(in_[hr >> 1]);
    queue_.clear();
    dist_[hr] = 0;
    count_[hr] = 1;
    touched_.push_back(hr);
    queue_.push_back(hr);
    size_t head = 0;
    while (head < queue_.size()) {
      Rank w = DequeueAndPrefetch(queue_, head, out_, 1);
      ++stats_.vertices_dequeued;
      if (w == hr) {
        // Modification (3) of §IV.C: the root only records (v, 0, 1) in its
        // own out-label (a derived one), then expands its predecessors
        // directly (the couple v_o is v's successor, not predecessor, so no
        // couple step here).
        ++stats_.entries;
        ++stats_.canonical_entries;
        for (Rank wn : graph_.Predecessors(hr)) {  // wn ∈ V_out
          if (hr < wn) {
            dist_[wn] = 1;
            count_[wn] = 1;
            touched_.push_back(wn);
            queue_.push_back(wn);
          }
        }
        continue;
      }
      bool is_hub_couple = (w == CoupleOf(hr));
      if (distance_pruning_) {
        Dist via = row_.Join(out_[w >> 1]);
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
      out_.Append(w >> 1, LabelEntry(hr, dist_[w], count_[w]));
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
      ++stats_.entries;
      for (Rank wn : graph_.Predecessors(w)) {  // wn ∈ V_out, into w_i
        if (dist_[wn] == kInfDist) {
          if (hr < wn) {
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
    if (distance_pruning_) row_.Clear(in_[hr >> 1]);
  }

  void ResetScratch() {
    for (Rank v : touched_) {
      dist_[v] = kInfDist;
      count_[v] = 0;
    }
    touched_.clear();
  }

  const RankedCsr& graph_;
  LabelStore& in_;   // L_in(v_i) by pair rank: set x >> 1 of in-vertex x
  LabelStore& out_;  // L_out(v_o) by pair rank: set x >> 1 of out-vertex x
  LabelBuildStats& stats_;
  const bool distance_pruning_;
  std::vector<Dist> dist_;
  std::vector<Count> count_;
  std::vector<Rank> touched_;
  std::vector<Rank> queue_;
  HubRow row_;
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

}  // namespace

CoupleLabels BuildCoupleLabels(const DiGraph& graph,
                               const VertexOrdering& order,
                               const CscIndex::Options& options,
                               bool distance_pruning, LabelBuildStats& stats) {
  const Vertex n = graph.num_vertices() + options.reserve_vertices;
  CheckVertexRange(n);
  CoupleLabels labels;
  {
    // Reserved vertices are isolated and ranked below every real vertex, so
    // they cost two self-labels each and never perturb existing labels.
    RankedCsr csr(graph, order, n);
    if (options.build_threads == 0) {
      labels.in = LabelStore(n, 1, 0);
      labels.out = LabelStore(n, 1, 0);
      CoupleSkipBuilder builder(csr, labels.in, labels.out, stats,
                                distance_pruning);
      builder.BuildAll();
    } else {
      assert(distance_pruning);
      BuildCoupleLabelsInParallel(csr, options.build_threads, labels.in,
                                  labels.out, stats);
    }
  }
  VertexOrdering& bipartite_order = labels.bipartite_order;
  bipartite_order = BipartiteOrdering(order);
  // A reserved vertex v is ranked v, so its bipartite ids are its ranks.
  for (Vertex v = graph.num_vertices(); v < n; ++v) {
    bipartite_order.rank_to_vertex.push_back(InVertex(v));
    bipartite_order.rank_to_vertex.push_back(OutVertex(v));
    bipartite_order.vertex_to_rank.push_back(InVertex(v));
    bipartite_order.vertex_to_rank.push_back(OutVertex(v));
  }
  stats.store = labels.in.Stats();
  stats.store += labels.out.Stats();
  return labels;
}

void CoupleLabels::ReleaseInto(std::vector<LabelSet>& in_sets,
                               std::vector<LabelSet>& out_sets,
                               LabelBuildStats& stats) {
  std::vector<LabelSet>* sets = nullptr;
  Release(
      [&](const LabelStore& store, bool in_direction) {
        sets = in_direction ? &in_sets : &out_sets;
        sets->assign(store.size(), LabelSet());
      },
      [&](Vertex v, std::span<const LabelEntry> run) {
        (*sets)[v] = LabelSet(run);
      },
      stats);
}

bool CoupleLabels::Debug() {
  return std::getenv("CSC_PARALLEL_DEBUG") != nullptr;
}

double CoupleLabels::Seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CoupleLabels::Report(bool debug, const double seconds[2],
                          LabelBuildStats& stats) const {
  stats.store_mapped_after_release =
      in.Stats().mapped_bytes + out.Stats().mapped_bytes;
  if (!debug) return;
  std::fprintf(stderr,
               "[parallel_build] labels: live=%llu capacity=%llu "
               "mapped_peak=%llu reused=%llu mapped_after=%llu "
               "freeze_in=%.3fs freeze_out=%.3fs\n",
               static_cast<unsigned long long>(stats.store.live_bytes),
               static_cast<unsigned long long>(stats.store.capacity_bytes),
               static_cast<unsigned long long>(
                   stats.store.mapped_high_water_bytes),
               static_cast<unsigned long long>(stats.store.reused_bytes),
               static_cast<unsigned long long>(
                   stats.store_mapped_after_release),
               seconds[0], seconds[1]);
}

CscIndex CscIndex::Build(const DiGraph& graph, const VertexOrdering& order,
                         const Options& options) {
  Timer timer;  // the whole build, inverted indexes included
  CscIndex index;
  index.options_ = options;
  index.options_.maintain_inverted_index = false;  // until populated below
  index.options_.reserve_vertices = 0;             // now part of graph_
  // Sorted adjacency lists: the maintenance passes visit neighbours in the
  // same order whatever edit history the caller's copy has.
  index.graph_ = DiGraph::FromEdges(
      graph.num_vertices() + options.reserve_vertices, graph.Edges());
  CoupleLabels labels = BuildCoupleLabels(
      graph, order, options, /*distance_pruning=*/true, index.stats_);
  labels.ReleaseInto(index.labels_.in, index.labels_.out, index.stats_);
  index.order_ = std::move(labels.bipartite_order);
  index.stats_.build_threads = options.build_threads;
  if (options.maintain_inverted_index) index.EnsureInvertedIndexes();
  index.stats_.seconds = timer.ElapsedSeconds();
  return index;
}

void CscIndex::EnsureInvertedIndexes() {
  if (options_.maintain_inverted_index) return;
  inv_in_.BuildFrom(labels_, LabelDirection::kIn, order_.size());
  inv_out_.BuildFrom(labels_, LabelDirection::kOut, order_.size());
  options_.maintain_inverted_index = true;
}

JoinResult CscIndex::BipartiteQuery(Vertex s, Vertex t) const {
  // L_in(t_o)'s own (t_o, 0, 1) meets no stored out-label but t_o's.
  if (s == t && IsOutVertex(s)) return {0, 1};
  // A derived side is its pair's stored set one step further. L_out(s_i)
  // also trades L_out(s_o)'s hub-s_i cycle entry for its own (s_i, 0, 1);
  // the join below keeps the cycle entry's term, but the own entry's term,
  // a whole cycle shorter, always beats it. (Stored in-labels hold V_in
  // hubs only, so L_out(s_o)'s self entry meets none.)
  const Dist shift = (IsInVertex(s) ? 1 : 0) + (IsOutVertex(t) ? 1 : 0);
  const LabelSet& in = labels_.in[OriginalOf(t)];
  JoinResult r = JoinLabels(labels_.out[OriginalOf(s)], in);
  if (r.dist != kInfDist) r.dist += shift;
  const LabelEntry* own =
      IsInVertex(s) ? in.Find(order_.vertex_to_rank[s]) : nullptr;
  if (own != nullptr) {
    const Dist d = own->dist() + shift - 1;
    if (d < r.dist) {
      r = {d, own->count()};
    } else if (d == r.dist) {
      r.count += own->count();
    }
  }
  return r;
}

CycleCount CscIndex::Query(Vertex v) const {
  // SCCnt(v) = SPCnt(v_o, v_i) in G_b (§IV.D); a v_o -> v_i distance d in
  // G_b corresponds to a cycle of length (d + 1) / 2 in the original graph.
  JoinResult r = JoinLabels(labels_.out[v], labels_.in[v]);
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
  JoinResult r = JoinLabels(labels_.out[v], labels_.in[u]);
  const LabelEntry* couple_entry =
      labels_.in[u].Find(order_.vertex_to_rank[InVertex(v)]);
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
  index.graph_ = graph;
  Timer timer;
  CoupleLabels labels =
      BuildCoupleLabels(graph, order, CscIndex::Options(),
                        !config.disable_distance_pruning, index.stats_);
  labels.ReleaseInto(index.labels_.in, index.labels_.out, index.stats_);
  index.order_ = std::move(labels.bipartite_order);
  index.stats_.seconds = timer.ElapsedSeconds();
  return index;
}

}  // namespace csc
