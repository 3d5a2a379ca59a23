#include <gtest/gtest.h>

#include <vector>

#include "csc/csc_index.h"
#include "csc/frozen_index.h"
#include "csc/screening.h"
#include "graph/ordering.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"

namespace csc {
namespace {

TEST(FrozenScreeningTest, MatchesDynamicScreening) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    DiGraph graph = RandomGraph(80, 3.0, seed + 40);
    CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
    FrozenIndex frozen = FrozenIndex::FromIndex(index);
    for (Dist max_len : {Dist{2}, Dist{4}, kInfDist}) {
      std::vector<ScreeningHit> dynamic_hits =
          TopKByCycleCount(index, max_len, 10);
      std::vector<ScreeningHit> frozen_hits =
          TopKByCycleCount(frozen, max_len, 10);
      EXPECT_EQ(frozen_hits, dynamic_hits)
          << "seed " << seed << " max_len " << max_len;
    }
  }
}

// The answers overload ranks a pool-parallel sweep exactly like the
// sequential index sweep.
std::vector<CycleCount> ParallelSweep(const FrozenIndex& frozen,
                                      ThreadPool& pool) {
  std::vector<CycleCount> answers(frozen.num_original_vertices());
  ParallelFor(pool, 0, answers.size(), 16, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      answers[v] = frozen.Query(static_cast<Vertex>(v));
    }
  });
  return answers;
}

TEST(FrozenScreeningTest, ParallelMatchesSequential) {
  ThreadPool pool(4);
  for (uint64_t seed = 0; seed < 5; ++seed) {
    DiGraph graph = RandomGraph(120, 3.0, seed + 50);
    FrozenIndex frozen =
        FrozenIndex::FromIndex(CscIndex::Build(graph, DegreeOrdering(graph)));
    std::vector<ScreeningHit> sequential =
        TopKByCycleCount(frozen, kInfDist, 15);
    std::vector<ScreeningHit> parallel =
        TopKByCycleCount(ParallelSweep(frozen, pool), kInfDist, 15);
    EXPECT_EQ(parallel, sequential) << "seed " << seed;
  }
}

TEST(FrozenScreeningTest, EmptyGraphAndZeroK) {
  ThreadPool pool(2);
  FrozenIndex frozen = FrozenIndex::FromIndex(
      CscIndex::Build(DiGraph(), DegreeOrdering(DiGraph())));
  EXPECT_TRUE(TopKByCycleCount(frozen, kInfDist, 5).empty());
  EXPECT_TRUE(
      TopKByCycleCount(ParallelSweep(frozen, pool), kInfDist, 5).empty());

  DiGraph triangle(3);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(2, 0);
  FrozenIndex tri = FrozenIndex::FromIndex(
      CscIndex::Build(triangle, DegreeOrdering(triangle)));
  EXPECT_TRUE(TopKByCycleCount(tri, kInfDist, 0).empty());
}

}  // namespace
}  // namespace csc
