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
/// ForwardPass/BackwardPass's dequeue loop, and Stored and CountEvent
/// re-apply INSERT_LABEL (Algorithm 4) to the same two written label sets
/// with the canonical/non-canonical classification from the events' via
/// distances, so labels and stats are bit-identical to the sequential
/// builder at any thread count. Vertex ids are bipartite ranks, as in
/// CoupleSkipBuilder (csc_index.cc).
class ParallelCoupleSkipBuilder {
 public:
  // Both stored sets are indexed by pair rank: a bipartite rank shifted.
  static constexpr unsigned kJoinShift = 1;

  ParallelCoupleSkipBuilder(const RankedCsr& graph, LabelStore& in,
                            LabelStore& out)
      : graph_(graph), in_(in), out_(out) {}

  size_t num_vertices() const { return graph_.num_ranks(); }

  // Set k holds BFS ids 2k and 2k + 1: blocks of half as many sets.
  void SplitSets(unsigned owners, unsigned block_shift) {
    const size_t num_sets = graph_.num_ranks() / 2;
    in_ = LabelStore(num_sets, owners, block_shift - kJoinShift);
    out_ = LabelStore(num_sets, owners, block_shift - kJoinShift);
  }

  Vertex VertexAt(Rank r) const { return r; }

  // Couple-vertex skipping: only V_in vertices root BFSs; a V_out rank
  // records its own trivial labels at commit time (Algorithm 3 lines 6-8).
  bool IsHub(Vertex v) const { return IsInVertex(v); }

  void CommitNonHub(Rank r, Vertex, LabelBuildStats& stats) {
    out_.Append(r >> 1, LabelEntry(r, 0, 1));
    stats.entries += 2;
    stats.canonical_entries += 2;
  }

  bool distance_pruning() const { return true; }

  // Passes write no labels while they join, so the row holds exactly the
  // committed set a merge join would read: forward, L_out(hub), which is
  // L_out(couple) shifted, below the hub's rank; backward, L_in(hub).
  void LoadRow(const PassKey& p, HubRow& row) const {
    if (p.forward) {
      row.LoadShifted(out_[p.rank >> 1], p.rank);
    } else {
      row.Load(in_[p.rank >> 1]);
    }
  }
  // Reads the set again rather than keep LoadRow's span: in a two-pass
  // level-split run the other pass may append the hub's own entry to it
  // (L_in(hub) forward, L_out(couple) backward), which may move it.
  void ClearRow(const PassKey& p, HubRow& row) const {
    row.Clear(p.forward ? out_[p.rank >> 1] : in_[p.rank >> 1]);
  }

  LabelStore& Sets(bool forward) const { return forward ? in_ : out_; }

  template <typename Frontier>
  void Visit(const PassKey& p, Rank w, Dist d, Count c, const HubRow& row,
             Frontier& frontier) const {
    const Rank hr = p.rank;
    if (p.forward) {
      Dist via = row.Join(in_[w >> 1]);
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
    Dist via = row.Join(out_[w >> 1]);
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

  // INSERT_LABEL (Algorithm 4) of event `e` appends to one label set,
  // L_in(w) forward and L_out(w) backward, except for the backward root's
  // (v, 0, 1), a derived entry. The couple's entry at +1 is derived too.
  bool Stored(const PassKey& p, const StagedEvent& e) const {
    return p.forward || e.w != p.rank;
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
  LabelStore& in_;   // by pair rank, as in CoupleSkipBuilder
  LabelStore& out_;
};

}  // namespace

void BuildCoupleLabelsInParallel(const RankedCsr& graph, unsigned num_threads,
                                 LabelStore& in, LabelStore& out,
                                 LabelBuildStats& stats) {
  ParallelCoupleSkipBuilder builder(graph, in, out);
  RunRankBatchedBuild(builder, graph.num_ranks(), num_threads, stats);
}

}  // namespace csc
