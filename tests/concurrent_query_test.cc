// The read contract of every backend: CountShortestCycles and Girth are
// const and reentrant, so any number of threads may query one backend
// instance — or one Engine, whose readers only ever take the read side of
// its snapshot lock — and every answer still equals the BFS ground truth.
// Run under ThreadSanitizer in CI (-DCSC_SANITIZE=thread), where a backend
// that shares mutable query state (scratch, a cache) between threads shows
// up as a data race even when its answers happen to come out right.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/bfs_cycle.h"
#include "core/cycle_index.h"
#include "csc/girth.h"
#include "serving/engine.h"
#include "tests/test_util.h"

namespace csc {
namespace {

constexpr int kThreads = 8;

std::vector<CycleCount> BfsReference(const DiGraph& graph) {
  std::vector<CycleCount> answers(graph.num_vertices());
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    answers[v] = BfsCountCycles(graph, v);
  }
  return answers;
}

// Runs `body(t)` on kThreads threads at once and joins them.
template <typename Body>
void RunConcurrently(const Body& body) {
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(body, t);
  for (std::thread& thread : threads) thread.join();
}

class ConcurrentQueryConformance
    : public ::testing::TestWithParam<std::string> {
 protected:
  // Large enough that one Engine sweep spans several parallel chunks.
  const DiGraph graph_ = RandomGraph(300, 2.5, 17);
  const std::vector<CycleCount> expected_ = BfsReference(graph_);
};

TEST_P(ConcurrentQueryConformance, BackendInstanceAnswersEveryThread) {
  std::unique_ptr<CycleIndex> backend = MakeBackend(GetParam());
  ASSERT_NE(backend, nullptr);
  backend->Build(graph_);
  const CycleIndex& index = *backend;
  const GirthInfo girth = ComputeGirth(
      graph_.num_vertices(), [&](Vertex v) { return expected_[v]; });
  const Vertex n = graph_.num_vertices();

  // Each thread records its own answers; they are compared after the join
  // so a failure names the thread without gtest asserting off-thread.
  std::vector<std::vector<CycleCount>> points(kThreads);
  std::vector<GirthInfo> girths(kThreads);
  RunConcurrently([&](int t) {
    points[t].resize(n);
    // Staggered start vertices, so threads query different vertices at
    // the same moment as well as the same ones.
    for (Vertex i = 0; i < n; ++i) {
      const Vertex v = (i + static_cast<Vertex>(t) * 37) % n;
      points[t][v] = index.CountShortestCycles(v);
    }
    girths[t] = index.Girth();
  });
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(points[t], expected_) << GetParam() << ", thread " << t;
    EXPECT_EQ(girths[t].girth, girth.girth) << GetParam() << ", thread " << t;
    EXPECT_EQ(girths[t].num_girth_vertices, girth.num_girth_vertices)
        << GetParam() << ", thread " << t;
  }
}

TEST_P(ConcurrentQueryConformance, EngineAnswersEveryThread) {
  EngineOptions options;
  options.backend = GetParam();
  options.num_threads = 2;
  options.batch_grain = 32;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph_));
  const Vertex n = graph_.num_vertices();

  std::vector<std::vector<CycleCount>> points(kThreads);
  std::vector<std::vector<CycleCount>> sweeps(kThreads);
  RunConcurrently([&](int t) {
    points[t].resize(n);
    for (Vertex i = 0; i < n; ++i) {
      const Vertex v = (i + static_cast<Vertex>(t) * 37) % n;
      points[t][v] = engine.Query(v);
    }
    // Eight concurrent sweeps share the engine's pool.
    sweeps[t] = engine.QueryAll();
  });
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(points[t], expected_) << GetParam() << ", thread " << t;
    EXPECT_EQ(sweeps[t], expected_) << GetParam() << ", thread " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ConcurrentQueryConformance,
                         ::testing::ValuesIn(AllBackendNames()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace csc
