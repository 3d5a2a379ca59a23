#include <span>
#include <vector>

#include "csc/couple_builders.h"
#include "graph/bipartite.h"
#include "labeling/hub_row.h"
#include "labeling/parallel_build.h"

namespace csc {

namespace {

/// The parallel counterpart of CoupleSkipBuilder, as the hooks of
/// RunRankBatchedBuild (labeling/parallel_build.h). Visit is the body of
/// ForwardPass/BackwardPass's dequeue loop, and Target and CountEvent
/// re-apply INSERT_LABEL (Algorithm 4) to the same two written label sets
/// with the canonical/non-canonical classification from the events' via
/// distances, so labels and stats are bit-identical to the sequential
/// builder at any thread count. Vertex ids are bipartite ranks, as in
/// CoupleSkipBuilder (csc_index.cc).
class ParallelCoupleSkipBuilder {
 public:
  // Both stored sets are indexed by pair rank: a bipartite rank shifted.
  static constexpr unsigned kJoinShift = 1;

  ParallelCoupleSkipBuilder(const RankedCsr& graph, PairLabels& labels)
      : graph_(graph), labels_(labels) {}

  size_t num_vertices() const { return graph_.num_ranks(); }
  Vertex VertexAt(Rank r) const { return r; }

  // Couple-vertex skipping: only V_in vertices root BFSs; a V_out rank
  // records its own trivial labels at commit time (Algorithm 3 lines 6-8).
  bool IsHub(Vertex v) const { return IsInVertex(v); }

  void CommitNonHub(Rank r, Vertex, LabelBuildStats& stats) {
    labels_.Out(r).Append(LabelEntry(r, 0, 1));
    stats.entries += 2;
    stats.canonical_entries += 2;
  }

  bool distance_pruning() const { return true; }

  // Passes write no labels while they join, so the row holds exactly the
  // committed set a merge join would read: forward, L_out(hub), which is
  // L_out(couple) shifted, below the hub's rank; backward, L_in(hub).
  const LabelSet* LoadRow(const PassKey& p, HubRow& row) const {
    if (p.forward) {
      const LabelSet& couple_out = labels_.Out(CoupleOf(p.rank));
      row.LoadShifted(couple_out, p.rank);
      return &couple_out;
    }
    row.Load(labels_.In(p.rank));
    return &labels_.In(p.rank);
  }

  const std::vector<LabelSet>& JoinedSets(bool forward) const {
    return forward ? labels_.in : labels_.out;
  }

  template <typename Frontier>
  void Visit(const PassKey& p, Rank w, Dist d, Count c, const HubRow& row,
             Frontier& frontier) const {
    const Rank hr = p.rank;
    if (p.forward) {
      Dist via = row.Join(labels_.In(w));
      if (via < d) {
        frontier.Prune();
        return;
      }
      frontier.Label({w, d, c, via});
      for (Rank wn : graph_.Successors(w)) {  // wn ∈ V_in
        if (hr < wn) frontier.Relax(wn, d + 2, c);  // rank pruning: hub ≺ wn
      }
      return;
    }
    if (w == hr) {
      // Modification (3) of §IV.C: the root records only its own
      // out-label and expands predecessors directly — never
      // distance-checked, mirrored by ValidateStagedHub skipping it.
      frontier.Label({hr, 0, 1, kInfDist});
      for (Rank wn : graph_.Predecessors(hr)) {  // wn ∈ V_out
        if (hr < wn) frontier.Relax(wn, 1, 1);
      }
      return;
    }
    Dist via = row.Join(labels_.Out(w));
    if (via < d) {
      frontier.Prune();
      return;
    }
    frontier.Label({w, d, c, via});
    if (w == CoupleOf(hr)) return;  // modification (4): cycle closed
    for (Rank wn : graph_.Predecessors(w)) {  // wn ∈ V_out, into w_i
      if (hr < wn) frontier.Relax(wn, d + 2, c);
    }
  }

  // INSERT_LABEL (Algorithm 4) of event `e`: the one label set it appends
  // to (L_in(w) forward, L_out(w) backward), or null for the backward
  // root's (v, 0, 1), a derived entry. The couple's entry at +1 is derived
  // too.
  LabelSet* Target(const PassKey& p, const StagedEvent& e) const {
    if (p.forward) return &labels_.In(e.w);
    return e.w == p.rank ? nullptr : &labels_.Out(e.w);
  }

  // The entries `e` stands for, as ForwardPass/BackwardPass count them:
  // each labeled vertex and its couple, except the backward root (only its
  // own out-label) and the hub's own couple (whose couple is the hub).
  void CountEvent(const PassKey& p, const StagedEvent& e,
                  LabelBuildStats& stats) const {
    if (!p.forward && e.w == p.rank) {
      ++stats.entries;
      ++stats.canonical_entries;
      return;
    }
    const uint64_t produced =
        !p.forward && e.w == CoupleOf(p.rank) ? 1 : 2;
    stats.entries += produced;
    if (e.via_dist == e.dist) {
      stats.non_canonical_entries += produced;
    } else {
      stats.canonical_entries += produced;
    }
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
  const RankedCsr& graph_;
  PairLabels& labels_;
};

}  // namespace

void BuildCoupleLabelsInParallel(const RankedCsr& graph, PairLabels& labels,
                                 unsigned num_threads, LabelBuildStats& stats) {
  ParallelCoupleSkipBuilder builder(graph, labels);
  RunRankBatchedBuild(builder, graph.num_ranks(), num_threads, stats);
}

}  // namespace csc
