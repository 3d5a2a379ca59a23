#include "labeling/label_set.h"

#include <gtest/gtest.h>

#include "labeling/hub_labeling.h"

namespace csc {
namespace {

TEST(LabelSetTest, AppendAndFind) {
  LabelSet labels;
  labels.Append(LabelEntry(1, 2, 3));
  labels.Append(LabelEntry(4, 5, 6));
  labels.Append(LabelEntry(9, 1, 1));
  EXPECT_EQ(labels.size(), 3u);
  ASSERT_NE(labels.Find(4), nullptr);
  EXPECT_EQ(labels.Find(4)->dist(), 5u);
  EXPECT_EQ(labels.Find(7), nullptr);
}

TEST(LabelSetTest, InsertOrReplaceKeepsRankOrder) {
  LabelSet labels;
  labels.Append(LabelEntry(2, 1, 1));
  labels.Append(LabelEntry(8, 1, 1));
  labels.InsertOrReplace(LabelEntry(5, 7, 7));   // middle insert
  labels.InsertOrReplace(LabelEntry(0, 9, 9));   // front insert
  labels.InsertOrReplace(LabelEntry(8, 3, 4));   // overwrite
  ASSERT_EQ(labels.size(), 4u);
  const auto& e = labels.entries();
  for (size_t i = 1; i < e.size(); ++i) EXPECT_LT(e[i - 1].hub(), e[i].hub());
  EXPECT_EQ(labels.Find(8)->dist(), 3u);
  EXPECT_EQ(labels.Find(8)->count(), 4u);
}

TEST(LabelSetTest, RemoveExistingAndMissing) {
  LabelSet labels;
  labels.Append(LabelEntry(1, 1, 1));
  labels.Append(LabelEntry(2, 2, 2));
  EXPECT_TRUE(labels.Remove(1));
  EXPECT_EQ(labels.size(), 1u);
  EXPECT_FALSE(labels.Remove(1));
  EXPECT_NE(labels.Find(2), nullptr);
}

TEST(LabelSetTest, SizeBytesIsEightPerEntry) {
  LabelSet labels;
  labels.Append(LabelEntry(1, 1, 1));
  labels.Append(LabelEntry(2, 1, 1));
  EXPECT_EQ(labels.SizeBytes(), 16u);
}

TEST(JoinLabelsTest, EmptyIntersectionIsUnreachable) {
  LabelSet out, in;
  out.Append(LabelEntry(1, 2, 1));
  in.Append(LabelEntry(3, 2, 1));
  JoinResult r = JoinLabels(out, in);
  EXPECT_EQ(r.dist, kInfDist);
  EXPECT_EQ(r.count, 0u);
}

TEST(JoinLabelsTest, PaperExample2) {
  // SPCnt(v10, v8) from Table II: common hubs v1, v7.
  // L_out(v10): (v1,1,1) (v7,3,1); L_in(v8): (v1,3,2) (v7,1,1).
  // Via v1: 1+3 = 4, count 1*2 = 2; via v7: 3+1 = 4, count 1*1 = 1.
  LabelSet out, in;
  out.Append(LabelEntry(0, 1, 1));  // hub rank 0 = v1
  out.Append(LabelEntry(1, 3, 1));  // hub rank 1 = v7
  in.Append(LabelEntry(0, 3, 2));
  in.Append(LabelEntry(1, 1, 1));
  JoinResult r = JoinLabels(out, in);
  EXPECT_EQ(r.dist, 4u);
  EXPECT_EQ(r.count, 3u);
}

TEST(JoinLabelsTest, ShorterHubWinsOverCounts) {
  LabelSet out, in;
  out.Append(LabelEntry(0, 1, 9));
  out.Append(LabelEntry(1, 1, 1));
  in.Append(LabelEntry(0, 5, 9));  // total 6
  in.Append(LabelEntry(1, 2, 4));  // total 3 <- min
  JoinResult r = JoinLabels(out, in);
  EXPECT_EQ(r.dist, 3u);
  EXPECT_EQ(r.count, 4u);
}

TEST(JoinLabelsTest, CountsMultiplyPerHubAndSumAcrossHubs) {
  LabelSet out, in;
  out.Append(LabelEntry(0, 1, 2));
  out.Append(LabelEntry(2, 2, 3));
  in.Append(LabelEntry(0, 2, 5));  // total 3, count 10
  in.Append(LabelEntry(2, 1, 4));  // total 3, count 12
  JoinResult r = JoinLabels(out, in);
  EXPECT_EQ(r.dist, 3u);
  EXPECT_EQ(r.count, 22u);
}

TEST(HubLabelingTest, TotalEntriesAndQuery) {
  HubLabeling labeling;
  labeling.Resize(2);
  labeling.out[0].Append(LabelEntry(0, 0, 1));
  labeling.in[1].Append(LabelEntry(0, 3, 2));
  labeling.in[1].Append(LabelEntry(1, 0, 1));
  EXPECT_EQ(labeling.TotalEntries(), 3u);
  EXPECT_EQ(labeling.SizeBytes(), 24u);
  JoinResult r = labeling.Query(0, 1);
  EXPECT_EQ(r.dist, 3u);
  EXPECT_EQ(r.count, 2u);
}

}  // namespace
}  // namespace csc
