#include "csc/csc_index.h"

#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
#include "csc/compact_index.h"
#include "dynamic/batch.h"
#include "labeling/pruned_bfs.h"
#include "tests/test_util.h"
#include "util/timer.h"
#include "workload/datasets.h"
#include "workload/update_workload.h"

namespace csc {
namespace {

class CscFigure2Test : public ::testing::Test {
 protected:
  CscFigure2Test()
      : graph_(Figure2Graph()),
        index_(CscIndex::Build(graph_, Figure2Ordering())) {}

  DiGraph graph_;
  CscIndex index_;
};

TEST_F(CscFigure2Test, ReproducesTableIII) {
  // Bipartite ranks: v1_i = 0, v7_i = 2, v7_o = 3 (v1 has original rank 0,
  // v7 original rank 1).
  const LabelSet& in_v7i = index_.served_labels().in[6];
  ASSERT_EQ(in_v7i.size(), 2u);
  EXPECT_EQ(in_v7i.entries()[0], LabelEntry(0, 4, 2));  // (v1_i, 4, 2)
  EXPECT_EQ(in_v7i.entries()[1], LabelEntry(2, 0, 1));  // (v7_i, 0, 1)

  const LabelSet& out_v7o = index_.served_labels().out[6];
  ASSERT_EQ(out_v7o.size(), 3u);
  EXPECT_EQ(out_v7o.entries()[0], LabelEntry(0, 7, 1));   // (v1_i, 7, 1)
  EXPECT_EQ(out_v7o.entries()[1], LabelEntry(2, 11, 1));  // (v7_i, 11, 1)
  EXPECT_EQ(out_v7o.entries()[2], LabelEntry(3, 0, 1));   // (v7_o, 0, 1)
}

TEST_F(CscFigure2Test, PaperExample6Query) {
  // SCCnt(v7) = 2 + 1 = 3 at bipartite distance 11 => cycle length 6.
  CycleCount cc = index_.Query(6);
  EXPECT_EQ(cc.length, 6u);
  EXPECT_EQ(cc.count, 3u);
}

TEST_F(CscFigure2Test, MatchesBfsForAllVertices) {
  for (Vertex v = 0; v < graph_.num_vertices(); ++v) {
    EXPECT_EQ(index_.Query(v), BfsCountCycles(graph_, v)) << "vertex " << v;
  }
}

TEST_F(CscFigure2Test, BipartiteStructureSizes) {
  // The index keeps the input graph; G_b's 2n vertices exist only as ranks.
  EXPECT_EQ(index_.num_original_vertices(), 10u);
  EXPECT_EQ(index_.graph(), graph_);
  EXPECT_EQ(index_.bipartite_order().size(), 20u);
}

TEST_F(CscFigure2Test, BuildStatsAreConsistent) {
  // The stats count the full labeling; the index stores the two served sets.
  const LabelBuildStats& stats = index_.build_stats();
  EXPECT_EQ(stats.entries, ExpandedLabeling(index_).TotalEntries());
  EXPECT_EQ(index_.TotalEntries(),
            CompactIndex::FromIndex(index_).TotalEntries());
  EXPECT_EQ(stats.canonical_entries + stats.non_canonical_entries,
            stats.entries);
  EXPECT_EQ(index_.SizeBytes(), index_.TotalEntries() * 8);
}

TEST_F(CscFigure2Test, CoupleLabelShiftInvariant) {
  // §IV.E: L_in(v_o) = shift(L_in(v_i)) plus v_o's self entry.
  const auto& order = index_.bipartite_order();
  const HubLabeling full = ExpandedLabeling(index_);
  for (Vertex v = 0; v < 10; ++v) {
    const auto& in_vi = full.in[InVertex(v)].entries();
    const auto& in_vo = full.in[OutVertex(v)].entries();
    ASSERT_EQ(in_vo.size(), in_vi.size() + 1);
    for (size_t i = 0; i < in_vi.size(); ++i) {
      EXPECT_EQ(in_vo[i].hub(), in_vi[i].hub());
      EXPECT_EQ(in_vo[i].dist(), in_vi[i].dist() + 1);
      EXPECT_EQ(in_vo[i].count(), in_vi[i].count());
    }
    EXPECT_EQ(in_vo.back(),
              LabelEntry(order.vertex_to_rank[OutVertex(v)], 0, 1));
  }
}

TEST(CscIndexTest, NoCycleGraph) {
  DiGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  for (Vertex v = 0; v < 4; ++v) {
    EXPECT_EQ(index.Query(v), (CycleCount{kInfDist, 0}));
  }
}

TEST(CscIndexTest, TwoCycles) {
  DiGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(1, 2);
  g.AddEdge(2, 1);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  EXPECT_EQ(index.Query(0), (CycleCount{2, 1}));
  EXPECT_EQ(index.Query(1), (CycleCount{2, 2}));
  EXPECT_EQ(index.Query(2), (CycleCount{2, 1}));
}

TEST(CscIndexTest, SingleVertexAndEmptyGraph) {
  DiGraph empty;
  CscIndex e = CscIndex::Build(empty, DegreeOrdering(empty));
  EXPECT_EQ(e.num_original_vertices(), 0u);
  DiGraph one(1);
  CscIndex i = CscIndex::Build(one, DegreeOrdering(one));
  EXPECT_EQ(i.Query(0), (CycleCount{kInfDist, 0}));
}

TEST(CscIndexTest, StoredSetsHaveExactCapacity) {
  // The repair shadow keeps its label sets for as long as it serves; the
  // build copies them out of its label store at their exact size.
  DiGraph g = RandomGraph(300, 3.0, 17);
  for (unsigned threads : {0u, 4u}) {
    CscIndex::Options options;
    options.build_threads = threads;
    options.reserve_vertices = 2;
    CscIndex index = CscIndex::Build(g, DegreeOrdering(g), options);
    for (const std::vector<LabelSet>* sets :
         {&index.served_labels().in, &index.served_labels().out}) {
      ASSERT_EQ(sets->size(), g.num_vertices() + 2u);
      for (size_t v = 0; v < sets->size(); ++v) {
        ASSERT_EQ((*sets)[v].capacity(), (*sets)[v].size())
            << "threads=" << threads << " vertex " << v;
      }
    }
    EXPECT_EQ(index.build_stats().store_mapped_after_release, 0u);
  }
}

TEST(CscIndexTest, InvertedIndexOptionPopulatesBothSides) {
  DiGraph g = Figure2Graph();
  CscIndex::Options options;
  options.maintain_inverted_index = true;
  CscIndex index = CscIndex::Build(g, Figure2Ordering(), options);
  ASSERT_TRUE(index.has_inverted_index());
  const HubLabeling& labels = index.served_labels();
  uint64_t in_entries = 0, out_entries = 0;
  for (Vertex v = 0; v < labels.num_vertices(); ++v) {
    in_entries += labels.in[v].size();
    out_entries += labels.out[v].size();
  }
  EXPECT_EQ(index.inv_in().TotalEntries(), in_entries);
  EXPECT_EQ(index.inv_out().TotalEntries(), out_entries);
}

TEST(CscIndexTest, EnsureInvertedIndexesIsIdempotent) {
  DiGraph g = Figure2Graph();
  CscIndex index = CscIndex::Build(g, Figure2Ordering());
  EXPECT_FALSE(index.has_inverted_index());
  index.EnsureInvertedIndexes();
  ASSERT_TRUE(index.has_inverted_index());
  uint64_t before = index.inv_in().TotalEntries();
  index.EnsureInvertedIndexes();
  EXPECT_EQ(index.inv_in().TotalEntries(), before);
}

// build_stats().seconds times the whole Build, the inverted indexes (most
// of it) included, not the labels alone.
TEST(CscIndexTest, BuildSecondsIncludeTheInvertedIndexes) {
  DiGraph g = MaterializeDataset(FindDataset("WKT").value(), 0.1);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex::Options options;
  options.maintain_inverted_index = true;
  Timer timer;
  CscIndex index = CscIndex::Build(g, order, options);
  const double wall = timer.ElapsedSeconds();
  ASSERT_TRUE(index.has_inverted_index());
  EXPECT_GE(index.build_stats().seconds, 0.8 * wall);
}

TEST(CscAblationTest, DisablingCoupleSkippingKeepsAnswers) {
  // Without couple skipping the labeling is a plain hub labeling of G_b
  // (no couple identity), built by HP-SPC's construction.
  DiGraph g = RandomGraph(40, 2.5, 77);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex standard = CscIndex::Build(g, order);
  DiGraph bipartite = BipartiteConversion(g);
  HubLabeling plain;
  plain.Resize(bipartite.num_vertices());
  LabelBuildStats plain_stats;
  BuildPlainHubLabeling(bipartite, BipartiteOrdering(order), plain,
                        plain_stats);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    JoinResult r = plain.Query(OutVertex(v), InVertex(v));
    CycleCount plain_answer = r.dist == kInfDist
                                  ? CycleCount{}
                                  : CycleCount{(r.dist + 1) / 2, r.count};
    EXPECT_EQ(plain_answer, standard.Query(v)) << "vertex " << v;
  }
  // Without couple skipping every bipartite vertex runs its own BFS pass.
  EXPECT_GT(plain_stats.vertices_dequeued,
            standard.build_stats().vertices_dequeued);
}

// BipartiteQuery reads the derived couple sets through the §IV.E identity;
// it must equal the plain 2-hop join over the expanded four-set labeling
// for every G_b pair, on fresh builds and after maintenance.
void ExpectBipartiteQueryMatchesExpanded(const CscIndex& index,
                                         const std::string& context) {
  const HubLabeling full = ExpandedLabeling(index);
  for (Vertex s = 0; s < full.num_vertices(); ++s) {
    for (Vertex t = 0; t < full.num_vertices(); ++t) {
      ASSERT_EQ(index.BipartiteQuery(s, t), full.Query(s, t))
          << context << " s=" << s << " t=" << t;
    }
  }
}

TEST(CscIndexTest, BipartiteQueryMatchesExpandedLabeling) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    DiGraph g = RandomGraph(30, 2.5, seed);
    VertexOrdering order = DegreeOrdering(g);
    for (unsigned threads : {0u, 4u}) {
      CscIndex::Options options;
      options.build_threads = threads;
      ExpectBipartiteQueryMatchesExpanded(
          CscIndex::Build(g, order, options),
          "seed " + std::to_string(seed) + " threads " +
              std::to_string(threads));
    }
    for (MaintenanceStrategy strategy :
         {MaintenanceStrategy::kRedundancy, MaintenanceStrategy::kMinimality}) {
      const bool minimality = strategy == MaintenanceStrategy::kMinimality;
      CscIndex index = CscIndex::Build(g, order);
      DiGraph current = g;
      BatchOptions batch_options;
      batch_options.strategy = strategy;
      batch_options.rebuild_threshold = 2.0;  // per-edge maintenance only
      for (uint64_t round = 0; round < 3; ++round) {
        std::vector<EdgeUpdate> updates;
        for (const Edge& e : SampleNewEdges(current, 3, 10 * seed + round)) {
          updates.push_back(EdgeUpdate::Insert(e.from, e.to));
        }
        // Removals need a minimal index: redundancy-mode inserts end it.
        if (round == 0 || minimality) {
          for (const Edge& e :
               SampleExistingEdges(current, 2, 20 * seed + round)) {
            updates.push_back(EdgeUpdate::Remove(e.from, e.to));
          }
        }
        for (const EdgeUpdate& u : updates) {
          if (u.kind == UpdateKind::kInsert) {
            current.AddEdge(u.edge.from, u.edge.to);
          } else {
            current.RemoveEdge(u.edge.from, u.edge.to);
          }
        }
        ASSERT_FALSE(ApplyUpdates(index, updates, batch_options).rebuilt);
        ExpectBipartiteQueryMatchesExpanded(
            index, "seed " + std::to_string(seed) +
                       (minimality ? " minimality" : " redundancy") +
                       " round " + std::to_string(round));
      }
    }
  }
}

TEST(CscAblationTest, DisablingDistancePruningKeepsAnswersButGrowsIndex) {
  DiGraph g = RandomGraph(40, 2.5, 78);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex standard = CscIndex::Build(g, order);
  CscAblationConfig config;
  config.disable_distance_pruning = true;
  CscIndex ablated = BuildCscAblation(g, order, config);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(ablated.Query(v), standard.Query(v)) << "vertex " << v;
  }
  EXPECT_GE(ablated.TotalEntries(), standard.TotalEntries());
}

}  // namespace
}  // namespace csc
