#include "labeling/validate.h"

#include <gtest/gtest.h>

#include "csc/csc_index.h"
#include "dynamic/decremental.h"
#include "dynamic/incremental.h"
#include "graph/bipartite.h"
#include "hpspc/hpspc_index.h"
#include "tests/test_util.h"
#include "workload/update_workload.h"

namespace csc {
namespace {

std::vector<bool> VinMask(Vertex bipartite_n) {
  std::vector<bool> mask(bipartite_n, false);
  for (Vertex v = 0; v < bipartite_n; ++v) mask[v] = IsInVertex(v);
  return mask;
}

TEST(ValidateTest, FreshHpSpcIsStructurallyAndSemanticallyValid) {
  DiGraph g = RandomGraph(40, 2.5, 3);
  VertexOrdering order = DegreeOrdering(g);
  HpSpcIndex index = HpSpcIndex::Build(g, order);
  EXPECT_TRUE(ValidateLabelingStructure(index.labeling(), order).empty());
  EXPECT_TRUE(ValidateLabelingSemantics(index.labeling(), g, order,
                                        /*expect_minimal=*/true)
                  .empty());
}

TEST(ValidateTest, FreshCscIsValidUnderVinMask) {
  DiGraph g = RandomGraph(35, 2.0, 5);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex index = CscIndex::Build(g, order);
  std::vector<bool> mask = VinMask(2 * index.num_original_vertices());
  const DiGraph gb = BipartiteConversion(index.graph());
  const HubLabeling full = ExpandedLabeling(index);
  EXPECT_TRUE(
      ValidateLabelingStructure(full, index.bipartite_order()).empty());
  EXPECT_TRUE(ValidateLabelingSemantics(full, gb, index.bipartite_order(),
                                        /*expect_minimal=*/true, &mask)
                  .empty());
}

TEST(ValidateTest, MaintainedIndexStaysValid) {
  DiGraph g = RandomGraph(25, 2.0, 7);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex index = CscIndex::Build(g, order);
  for (const Edge& e : SampleNewEdges(g, 8, 8)) {
    ASSERT_TRUE(
        InsertEdge(index, e.from, e.to, MaintenanceStrategy::kMinimality));
    g.AddEdge(e.from, e.to);
  }
  for (const Edge& e : SampleExistingEdges(g, 5, 9)) {
    ASSERT_TRUE(RemoveEdge(index, e.from, e.to));
    g.RemoveEdge(e.from, e.to);
  }
  std::vector<bool> mask = VinMask(2 * index.num_original_vertices());
  const DiGraph gb = BipartiteConversion(index.graph());
  const HubLabeling full = ExpandedLabeling(index);
  EXPECT_TRUE(
      ValidateLabelingStructure(full, index.bipartite_order()).empty());
  EXPECT_TRUE(ValidateLabelingSemantics(full, gb, index.bipartite_order(),
                                        /*expect_minimal=*/true, &mask)
                  .empty());
}

TEST(ValidateTest, RedundantEntriesFlaggedOnlyWhenMinimalExpected) {
  DiGraph g(11);
  g.AddEdge(1, 0);
  g.AddEdge(0, 2);
  g.AddEdge(0, 9);
  g.AddEdge(0, 10);
  g.AddEdge(3, 4);
  g.AddEdge(1, 5);
  g.AddEdge(5, 6);
  g.AddEdge(6, 7);
  g.AddEdge(7, 8);
  g.AddEdge(8, 4);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex index = CscIndex::Build(g, order);
  ASSERT_TRUE(InsertEdge(index, 2, 3, MaintenanceStrategy::kRedundancy));
  std::vector<bool> mask = VinMask(2 * index.num_original_vertices());
  const DiGraph gb = BipartiteConversion(index.graph());
  const HubLabeling full = ExpandedLabeling(index);
  EXPECT_FALSE(ValidateLabelingSemantics(full, gb, index.bipartite_order(),
                                         /*expect_minimal=*/true, &mask)
                   .empty());
  EXPECT_TRUE(ValidateLabelingSemantics(full, gb, index.bipartite_order(),
                                        /*expect_minimal=*/false, &mask)
                  .empty());
}

TEST(ValidateTest, DetectsCorruptedEntries) {
  DiGraph g = Figure2Graph();
  VertexOrdering order = Figure2Ordering();
  HpSpcIndex index = HpSpcIndex::Build(g, order);
  HubLabeling broken = index.labeling();
  // Corrupt one non-self entry's count.
  for (Vertex v = 0; v < 10 && true; ++v) {
    auto& labels = broken.in[v];
    if (labels.size() < 2) continue;
    LabelEntry e = labels.entries().front();
    labels.InsertOrReplace(LabelEntry(e.hub(), e.dist(), e.count() + 1));
    break;
  }
  EXPECT_FALSE(ValidateLabelingSemantics(broken, g, order,
                                         /*expect_minimal=*/true)
                   .empty());
}

TEST(ValidateTest, DetectsUnsortedAndMissingSelf) {
  VertexOrdering order = OrderingFromPermutation({0, 1, 2});
  HubLabeling labeling;
  labeling.Resize(3);
  // Vertex 0: fine. Vertex 1: missing self. Vertex 2: will get an unsorted
  // pair via direct vector surgery through InsertOrReplace misuse is not
  // possible, so check the missing-self and below-owner cases instead.
  labeling.in[0].Append(LabelEntry(0, 0, 1));
  labeling.out[0].Append(LabelEntry(0, 0, 1));
  labeling.in[1].Append(LabelEntry(0, 1, 1));  // hub 0, but no self entry
  labeling.out[1].Append(LabelEntry(1, 0, 1));
  labeling.in[2].Append(LabelEntry(2, 0, 1));
  labeling.out[2].Append(LabelEntry(2, 0, 1));
  auto violations = ValidateLabelingStructure(labeling, order);
  ASSERT_FALSE(violations.empty());
  bool mentions_missing_self = false;
  for (const std::string& v : violations) {
    if (v.find("missing self") != std::string::npos) {
      mentions_missing_self = true;
    }
  }
  EXPECT_TRUE(mentions_missing_self);
}

TEST(ValidateTest, StatsAddUp) {
  DiGraph g = RandomGraph(50, 2.5, 11);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  const HubLabeling& labels = index.served_labels();
  LabelingStats stats = ComputeLabelingStats(labels);
  EXPECT_EQ(stats.total_entries, index.TotalEntries());
  EXPECT_EQ(stats.in_entries + stats.out_entries, stats.total_entries);
  EXPECT_GT(stats.max_label_size, 0u);
  EXPECT_GT(stats.avg_label_size, 0.0);
  uint64_t histogram_total = 0;
  for (uint64_t bucket : stats.size_histogram) histogram_total += bucket;
  EXPECT_EQ(histogram_total,
            labels.in.size() + labels.out.size());
}

}  // namespace
}  // namespace csc
