#include "labeling/inverted_index.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "csc/csc_index.h"
#include "dynamic/batch.h"
#include "dynamic/decremental.h"
#include "dynamic/incremental.h"
#include "graph/ordering.h"
#include "tests/test_util.h"
#include "workload/update_workload.h"

namespace csc {
namespace {

TEST(InvertedIndexTest, AddRemoveContains) {
  InvertedIndex inverted(4);
  inverted.Add(2, 7);
  inverted.Add(2, 9);
  EXPECT_TRUE(inverted.Contains(2, 7));
  EXPECT_FALSE(inverted.Contains(2, 8));
  EXPECT_FALSE(inverted.Contains(3, 7));
  EXPECT_EQ(inverted.TotalEntries(), 2u);
  inverted.Remove(2, 7);
  EXPECT_FALSE(inverted.Contains(2, 7));
  // Out-of-range removals are no-ops, not crashes.
  inverted.Remove(100, 7);
  EXPECT_EQ(inverted.TotalEntries(), 1u);
}

TEST(InvertedIndexTest, AddGrowsRankTableOnDemand) {
  InvertedIndex inverted;
  EXPECT_TRUE(inverted.empty());
  inverted.Add(10, 3);
  EXPECT_GE(inverted.num_ranks(), 11u);
  EXPECT_TRUE(inverted.Contains(10, 3));
  EXPECT_TRUE(inverted.Vertices(5).empty());
  EXPECT_TRUE(inverted.Vertices(999).empty());  // past the table: empty view
}

TEST(InvertedIndexTest, BuildFromMirrorsLabeling) {
  CscIndex::Options options;
  options.maintain_inverted_index = true;
  CscIndex index = CscIndex::Build(Figure2Graph(), Figure2Ordering(), options);
  EXPECT_TRUE(index.inv_in().ConsistentWith(index.served_labels(),
                                            LabelDirection::kIn));
  EXPECT_TRUE(index.inv_out().ConsistentWith(index.served_labels(),
                                             LabelDirection::kOut));
  EXPECT_EQ(index.inv_in().TotalEntries() + index.inv_out().TotalEntries(),
            index.TotalEntries());
}

TEST(InvertedIndexTest, ConsistentWithDetectsDrift) {
  CscIndex::Options options;
  options.maintain_inverted_index = true;
  CscIndex index = CscIndex::Build(Figure2Graph(), Figure2Ordering(), options);
  InvertedIndex copy = index.inv_in();
  ASSERT_TRUE(copy.ConsistentWith(index.served_labels(), LabelDirection::kIn));
  // A stale extra pair and a missing pair must both be caught.
  copy.Add(0, 1000);  // vertex id no labeling covers
  EXPECT_FALSE(
      copy.ConsistentWith(index.served_labels(), LabelDirection::kIn));
  copy.Remove(0, 1000);
  Rank some_hub = index.served_labels().in[2].entries().front().hub();
  copy.Remove(some_hub, 2);
  EXPECT_FALSE(
      copy.ConsistentWith(index.served_labels(), LabelDirection::kIn));
}

// Both mirrors hold exactly the (hub, owner) pairs of the two stored sets.
void ExpectMirrorsStoredSets(const CscIndex& index,
                             const std::string& context) {
  EXPECT_TRUE(index.inv_in().ConsistentWith(index.served_labels(),
                                            LabelDirection::kIn))
      << context;
  EXPECT_TRUE(index.inv_out().ConsistentWith(index.served_labels(),
                                             LabelDirection::kOut))
      << context;
}

// Inverted-hub maintenance is exercised when the index is built with
// maintain_inverted_index and updated under the minimality strategy — the
// mirrors must track every label mutation.
TEST(InvertedIndexTest, StaysConsistentThroughMinimalityMaintenance) {
  CscIndex::Options options;
  options.maintain_inverted_index = true;
  DiGraph graph = Figure2Graph();
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph), options);

  const std::vector<std::pair<bool, Edge>> scenario = {
      {true, {7, 6}}, {true, {6, 0}}, {false, {7, 6}}, {false, {0, 2}}};
  for (const auto& [insert, edge] : scenario) {
    bool applied =
        insert ? InsertEdge(index, edge.from, edge.to,
                            MaintenanceStrategy::kMinimality)
               : RemoveEdge(index, edge.from, edge.to);
    ASSERT_TRUE(applied);
    ExpectMirrorsStoredSets(index, std::string(insert ? "insert " : "remove ") +
                                       std::to_string(edge.from) + "->" +
                                       std::to_string(edge.to));
  }
  // Seeded random graphs under mixed insert/delete batches: both mirrors
  // must track every maintenance write and cleaning removal.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    DiGraph g = RandomGraph(40, 2.5, 100 + seed);
    CscIndex random_index = CscIndex::Build(g, DegreeOrdering(g), options);
    BatchOptions batch_options;
    batch_options.strategy = MaintenanceStrategy::kMinimality;
    batch_options.rebuild_threshold = 2.0;  // per-edge maintenance only
    for (uint64_t round = 0; round < 4; ++round) {
      std::vector<EdgeUpdate> updates;
      for (const Edge& e : SampleExistingEdges(g, 3, 10 * seed + round)) {
        updates.push_back(EdgeUpdate::Remove(e.from, e.to));
      }
      for (const Edge& e : SampleNewEdges(g, 4, 20 * seed + round)) {
        updates.push_back(EdgeUpdate::Insert(e.from, e.to));
      }
      for (const EdgeUpdate& u : updates) {
        if (u.kind == UpdateKind::kInsert) {
          g.AddEdge(u.edge.from, u.edge.to);
        } else {
          g.RemoveEdge(u.edge.from, u.edge.to);
        }
      }
      ASSERT_FALSE(ApplyUpdates(random_index, updates, batch_options).rebuilt);
      ExpectMirrorsStoredSets(random_index, "seed " + std::to_string(seed) +
                                                " round " +
                                                std::to_string(round));
    }
  }
}

}  // namespace
}  // namespace csc
