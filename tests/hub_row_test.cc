// HubRow (labeling/hub_row.h) is the distance-pruning check of every pruned
// BFS: it must return exactly the merge join's distance for the loaded set,
// under any rank bound, and leave a clean row behind for the next hub.
#include "labeling/hub_row.h"

#include <gtest/gtest.h>

#include "csc/csc_index.h"
#include "graph/bipartite.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace csc {
namespace {

constexpr Rank kNumRanks = 128;

// A rank-sorted label set holding each rank with probability `density`.
LabelSet RandomLabels(Rng& rng, double density, Dist max_dist) {
  LabelSet labels;
  for (Rank r = 0; r < kNumRanks; ++r) {
    if (rng.NextBool(density)) {
      labels.Append(LabelEntry(r, static_cast<Dist>(rng.NextBounded(max_dist)),
                               1 + rng.NextBounded(5)));
    }
  }
  return labels;
}

LabelSet EntriesBelow(const LabelSet& labels, Rank bound) {
  LabelSet kept;
  for (const LabelEntry& e : labels.entries()) {
    if (e.hub() < bound) kept.Append(e);
  }
  return kept;
}

void ExpectClear(const HubRow& row) {
  for (Rank r = 0; r < row.size(); ++r) {
    ASSERT_EQ(row.at(r), kInfDist) << "slot " << r;
  }
}

TEST(HubRowTest, JoinMatchesMergeJoinOnRandomSets) {
  Rng rng(1);
  HubRow row(kNumRanks);  // one row reused across every hub, as in a build
  for (int trial = 0; trial < 300; ++trial) {
    // Sparse to dense sets, with few distinct distances so ties are common.
    double density = 0.02 + 0.9 * rng.NextDouble();
    Dist max_dist = 1 + static_cast<Dist>(rng.NextBounded(8));
    LabelSet hub = RandomLabels(rng, density, max_dist);
    row.Load(hub.entries());
    for (int q = 0; q < 8; ++q) {
      LabelSet w = RandomLabels(rng, 0.02 + 0.9 * rng.NextDouble(), max_dist);
      EXPECT_EQ(row.Join(w.entries()), JoinLabels(hub, w).dist)
          << "trial " << trial;
    }
    row.Clear(hub.entries());
    ExpectClear(row);
  }
}

TEST(HubRowTest, RankBoundMatchesMergeJoinOfEntriesBelow) {
  Rng rng(2);
  HubRow row(kNumRanks);
  for (int trial = 0; trial < 300; ++trial) {
    LabelSet hub = RandomLabels(rng, 0.5, 6);
    Rank bound = trial < 2 ? (trial == 0 ? 0 : kNumRanks)
                           : static_cast<Rank>(rng.NextBounded(kNumRanks + 1));
    LabelSet below = EntriesBelow(hub, bound);
    row.Load(hub.entries(), bound);
    for (int q = 0; q < 8; ++q) {
      LabelSet w = RandomLabels(rng, 0.5, 6);
      EXPECT_EQ(row.Join(w.entries()), JoinLabels(below, w).dist)
          << "trial " << trial << " bound " << bound;
    }
    row.Clear(hub.entries());
    ExpectClear(row);
  }
}

TEST(HubRowTest, EmptyAndDisjointSetsShareNoHub) {
  HubRow row(kNumRanks);
  LabelSet empty, even, odd;
  for (Rank r = 0; r < kNumRanks; r += 2) even.Append(LabelEntry(r, 1, 1));
  for (Rank r = 1; r < kNumRanks; r += 2) odd.Append(LabelEntry(r, 1, 1));

  row.Load(empty.entries());
  EXPECT_EQ(row.Join(even.entries()), kInfDist);
  EXPECT_EQ(row.Join(empty.entries()), kInfDist);
  row.Clear(empty.entries());

  row.Load(even.entries());
  EXPECT_EQ(row.Join(empty.entries()), kInfDist);
  EXPECT_EQ(row.Join(odd.entries()), kInfDist);
  EXPECT_EQ(row.Join(even.entries()), 2u);
  row.Clear(even.entries());
  ExpectClear(row);
}

TEST(HubRowTest, TiedMinimaReturnTheSharedDistance) {
  // Hubs 3 and 9 both realize distance 4; hub 20 realizes 5. The merge join
  // sums the tied counts; the row reports only the distance.
  LabelSet hub, w;
  hub.Append(LabelEntry(3, 1, 2));
  hub.Append(LabelEntry(9, 2, 3));
  hub.Append(LabelEntry(20, 0, 1));
  w.Append(LabelEntry(3, 3, 5));
  w.Append(LabelEntry(9, 2, 7));
  w.Append(LabelEntry(20, 5, 1));
  ASSERT_EQ(JoinLabels(hub, w), (JoinResult{4, 2 * 5 + 3 * 7}));

  HubRow row(kNumRanks);
  row.Load(hub.entries());
  EXPECT_EQ(row.Join(w.entries()), 4u);
  row.Clear(hub.entries());
  row.Load(hub.entries(), /*bound=*/9);  // only hub 3 is below the bound
  EXPECT_EQ(row.Join(w.entries()), 4u);
  row.Clear(hub.entries());
  row.Load(hub.entries(), /*bound=*/3);  // nothing is
  EXPECT_EQ(row.Join(w.entries()), kInfDist);
  row.Clear(hub.entries());
  ExpectClear(row);
}

TEST(HubRowTest, ShiftedCoupleLoadMatchesOutLabelsOfTheHub) {
  // A CSC forward pass of hub v_i prunes against L_out(v_i) as it stands
  // when the pass starts: the final set below rank(v_i). Construction no
  // longer writes L_out(v_i), so the pass loads it shifted from L_out(v_o)
  // instead. On final labelings, whose L_out(v_o) also holds the v_i cycle
  // entry (when a cycle passes through v) and the v_o self entry, both rows
  // must agree slot for slot and on the join with every in-label set. The
  // full labeling here is derived by the same §IV.E identity; the pinned
  // four-set CRCs in build_output_pinned_test.cc anchor it to the labeling
  // a four-set construction wrote.
  for (uint64_t seed = 0; seed < 4; ++seed) {
    DiGraph g = RandomGraph(60, 2.5, seed);
    CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
    const HubLabeling labels = ExpandedLabeling(index);
    const std::vector<Rank>& rank = index.bipartite_order().vertex_to_rank;
    const Vertex num_bipartite = static_cast<Vertex>(labels.num_vertices());
    HubRow shifted(num_bipartite);
    HubRow direct(num_bipartite);
    size_t hubs_with_cycle_entry = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const Vertex vi = InVertex(v);
      const Vertex vo = OutVertex(v);
      const LabelSet& couple_out = labels.out[vo];
      ASSERT_NE(couple_out.Find(rank[vo]), nullptr) << "v_o self entry " << v;
      if (couple_out.Find(rank[vi]) != nullptr) ++hubs_with_cycle_entry;

      shifted.LoadShifted(couple_out.entries(), rank[vi]);
      direct.Load(labels.out[vi].entries(), rank[vi]);
      for (Rank r = 0; r < num_bipartite; ++r) {
        ASSERT_EQ(shifted.at(r), direct.at(r))
            << "seed " << seed << " hub " << v << " slot " << r;
      }
      for (Vertex w = 0; w < num_bipartite; ++w) {
        ASSERT_EQ(shifted.Join(labels.in[w].entries()),
                  direct.Join(labels.in[w].entries()))
            << "seed " << seed << " hub " << v << " L_in(" << w << ")";
      }
      shifted.Clear(couple_out.entries());
      direct.Clear(labels.out[vi].entries());
      ExpectClear(shifted);
      ExpectClear(direct);
    }
    EXPECT_GT(hubs_with_cycle_entry, 0u) << "seed " << seed;
  }
}

TEST(HubRowTest, DequeueAndPrefetchPopsInOrderAtEveryQueueLength) {
  // The prefetch looks up to 2 * kJoinLookAhead entries past the head: it
  // must stay inside the queue and the sets (empty runs, runs longer than
  // the prefetched prefix, a pair-shared set) and pop exactly queue[head].
  Rng rng(3);
  std::vector<LabelSet> sets(40);
  for (LabelSet& s : sets) s = RandomLabels(rng, rng.NextDouble(), 4);
  sets[5] = LabelSet();
  for (size_t len = 0; len <= 2 * kJoinLookAhead + 3; ++len) {
    for (unsigned shift : {0u, 1u}) {
      std::vector<Rank> queue;
      for (size_t i = 0; i < len; ++i) {
        queue.push_back(static_cast<Rank>(rng.NextBounded(40 << shift)));
      }
      size_t head = 0;
      for (size_t i = 0; i < len; ++i) {
        ASSERT_EQ(DequeueAndPrefetch(queue, head, sets, shift), queue[i]);
        ASSERT_EQ(head, i + 1);
      }
    }
  }
}

}  // namespace
}  // namespace csc
