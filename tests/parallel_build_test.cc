// Determinism conformance for the parallel builder
// (labeling/parallel_build.h): at every thread count the parallel
// construction must be bit-identical to the sequential oracle — the
// in-memory labelings, the serialized payloads of every labeling-based
// backend, and the build stats (which commit from per-pass and per-worker
// partials and must aggregate to exactly the sequential counters). Both
// phases run: the level-split passes of the top hubs, and the rank batches
// with their dirty re-runs.
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cycle_index.h"
#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "csc/frozen_index.h"
#include "graph/generators.h"
#include "graph/ordering.h"
#include "hpspc/hpspc_index.h"
#include "labeling/parallel_build.h"
#include "labeling/pruned_bfs.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workload/datasets.h"

namespace csc {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 3, 4, 8};

struct NamedGraph {
  std::string name;
  DiGraph graph;
};

// A spread of shapes: the paper's worked example, a heavy-tailed
// preferential-attachment graph (many same-batch hub interactions near the
// top ranks — the case the validation/fixup pass exists for), a small-world
// lattice (long cycles), and a uniform random graph.
std::vector<NamedGraph> ConformanceGraphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"figure2", Figure2Graph()});
  graphs.push_back(
      {"power_law", GeneratePreferentialAttachment(600, 3, 0.2, 7)});
  graphs.push_back({"small_world", GenerateSmallWorld(500, 3, 0.1, 11)});
  graphs.push_back({"erdos_renyi", GenerateErdosRenyi(400, 2000, 13)});
  return graphs;
}

void ExpectStatsEqual(const LabelBuildStats& parallel,
                      const LabelBuildStats& sequential,
                      const std::string& context) {
  EXPECT_EQ(parallel.entries, sequential.entries) << context;
  EXPECT_EQ(parallel.canonical_entries, sequential.canonical_entries)
      << context;
  EXPECT_EQ(parallel.non_canonical_entries, sequential.non_canonical_entries)
      << context;
  EXPECT_EQ(parallel.vertices_dequeued, sequential.vertices_dequeued)
      << context;
  EXPECT_EQ(parallel.pruned_by_distance, sequential.pruned_by_distance)
      << context;
}

TEST(ParallelBuildDeterminismTest, CscLabelingMatchesSequential) {
  for (const NamedGraph& g : ConformanceGraphs()) {
    VertexOrdering order = DegreeOrdering(g.graph);
    CscIndex sequential = CscIndex::Build(g.graph, order);
    for (unsigned threads : kThreadCounts) {
      CscIndex::Options options;
      options.build_threads = threads;
      CscIndex parallel = CscIndex::Build(g.graph, order, options);
      std::string context = g.name + " threads=" + std::to_string(threads);
      EXPECT_EQ(parallel.served_labels(), sequential.served_labels())
          << context;
      ExpectStatsEqual(parallel.build_stats(), sequential.build_stats(),
                       context);
      EXPECT_EQ(parallel.build_stats().build_threads, threads) << context;
    }
  }
}

// Graphs whose top hubs run level-split passes: WKT@0.1 (5,500 vertices)
// keeps the first phase going for several hubs, and on the power-law graph
// it hands over after the first; both have levels large enough to split.
std::vector<NamedGraph> LevelSplitGraphs() {
  std::vector<NamedGraph> graphs;
  graphs.push_back(
      {"wkt_0.1", MaterializeDataset(FindDataset("WKT").value(), 0.1)});
  graphs.push_back(
      {"power_law", GeneratePreferentialAttachment(600, 3, 0.2, 7)});
  return graphs;
}

// The worker counts of the level-split tests: kThreadCounts plus 5 and 7,
// and twice the hardware threads, beyond the level-split crew's clamp.
std::vector<unsigned> LevelSplitThreadCounts() {
  std::vector<unsigned> counts(std::begin(kThreadCounts),
                               std::end(kThreadCounts));
  counts.push_back(5);
  counts.push_back(7);
  counts.push_back(2 * ThreadPool::DefaultThreadCount());
  return counts;
}

// The first phase ran (at any thread count), and with more than one worker
// it split levels across them.
void ExpectLevelSplitRan(const LabelBuildStats& stats, unsigned threads,
                         uint64_t min_hubs, const std::string& context) {
  EXPECT_GE(stats.split_hubs, min_hubs) << context;
  if (threads > 1) {
    EXPECT_GT(stats.split_levels, 0u) << context;
  } else {
    EXPECT_EQ(stats.split_levels, 0u) << context;
  }
}

TEST(ParallelBuildDeterminismTest, CscLevelSplitPhaseMatchesSequential) {
  for (const NamedGraph& g : LevelSplitGraphs()) {
    VertexOrdering order = DegreeOrdering(g.graph);
    CscIndex sequential = CscIndex::Build(g.graph, order);
    EXPECT_EQ(sequential.build_stats().split_hubs, 0u) << g.name;
    const uint64_t min_hubs = g.name == "wkt_0.1" ? 2 : 1;
    for (unsigned threads : LevelSplitThreadCounts()) {
      CscIndex::Options options;
      options.build_threads = threads;
      CscIndex parallel = CscIndex::Build(g.graph, order, options);
      std::string context = g.name + " threads=" + std::to_string(threads);
      EXPECT_EQ(parallel.served_labels(), sequential.served_labels())
          << context;
      ExpectStatsEqual(parallel.build_stats(), sequential.build_stats(),
                       context);
      ExpectLevelSplitRan(parallel.build_stats(), threads, min_hubs, context);
    }
  }
}

TEST(ParallelBuildDeterminismTest, HpSpcLevelSplitPhaseMatchesSequential) {
  for (const NamedGraph& g : LevelSplitGraphs()) {
    VertexOrdering order = DegreeOrdering(g.graph);
    HpSpcIndex sequential = HpSpcIndex::Build(g.graph, order);
    const uint64_t min_hubs = g.name == "wkt_0.1" ? 2 : 1;
    for (unsigned threads : LevelSplitThreadCounts()) {
      HpSpcIndex parallel = HpSpcIndex::Build(g.graph, order, threads);
      std::string context = g.name + " threads=" + std::to_string(threads);
      EXPECT_EQ(parallel.labeling(), sequential.labeling()) << context;
      ExpectStatsEqual(parallel.build_stats(), sequential.build_stats(),
                       context);
      ExpectLevelSplitRan(parallel.build_stats(), threads, min_hubs, context);
    }
  }
}

// Vertex 0 on 2-cycles through 200 leaves that all fall in the blocks of
// the last of `owners` level-split owners (labeling/parallel_build.h), so
// the hub's 200-vertex level, split, leaves the other owners empty lists
// and empty inboxes. A builder's BFS ids are its vertex ids shifted left by
// `id_shift` (1 for the CSC builder's bipartite ids under the identity
// order).
DiGraph OneOwnerFanOut(unsigned owners, unsigned id_shift) {
  std::vector<Edge> edges;
  Vertex v = 1;
  for (size_t leaves = 0; leaves < 200; ++v) {
    if (((v << id_shift) >> kOwnerBlockShift) % owners != owners - 1) continue;
    edges.push_back({0, v});
    edges.push_back({v, 0});
    ++leaves;
  }
  return DiGraph::FromEdges(v, edges);
}

VertexOrdering IdentityOrdering(Vertex n) {
  std::vector<Vertex> rank_to_vertex(n);
  for (Vertex v = 0; v < n; ++v) rank_to_vertex[v] = v;
  return OrderingFromPermutation(rank_to_vertex);
}

TEST(ParallelBuildDeterminismTest, LevelInOneOwnersBlocksMatchesSequential) {
  for (unsigned threads : LevelSplitThreadCounts()) {
    const unsigned owners = LevelSplitOwners(threads);
    const std::string context = "threads=" + std::to_string(threads);
    {
      DiGraph graph = OneOwnerFanOut(owners, 1);
      VertexOrdering order = IdentityOrdering(graph.num_vertices());
      CscIndex sequential = CscIndex::Build(graph, order);
      CscIndex::Options options;
      options.build_threads = threads;
      CscIndex parallel = CscIndex::Build(graph, order, options);
      EXPECT_EQ(parallel.served_labels(), sequential.served_labels())
          << "csc " << context;
      ExpectStatsEqual(parallel.build_stats(), sequential.build_stats(),
                       "csc " + context);
      ExpectLevelSplitRan(parallel.build_stats(), threads, 1,
                          "csc " + context);
    }
    DiGraph graph = OneOwnerFanOut(owners, 0);
    VertexOrdering order = IdentityOrdering(graph.num_vertices());
    HpSpcIndex sequential = HpSpcIndex::Build(graph, order);
    HpSpcIndex parallel = HpSpcIndex::Build(graph, order, threads);
    EXPECT_EQ(parallel.labeling(), sequential.labeling())
        << "hpspc " << context;
    ExpectStatsEqual(parallel.build_stats(), sequential.build_stats(),
                     "hpspc " + context);
    ExpectLevelSplitRan(parallel.build_stats(), threads, 1,
                        "hpspc " + context);
  }
}

// A skewed graph drawn as CI's parallel-builder smoke test draws its own:
// 3,000 vertices and 12,000 distinct edges (u, v), u uniform and v = n * U^3
// for U uniform on [0, 1), so a few vertices take most in-edges. (CI draws
// with Python's generator, so the edges differ; the shape is the same.)
DiGraph SkewedGraph() {
  constexpr Vertex kN = 3000;
  Rng rng(25);
  std::set<std::pair<Vertex, Vertex>> edges;
  while (edges.size() < 12000) {
    const Vertex u = static_cast<Vertex>(rng.NextBounded(kN));
    const double x = rng.NextDouble();
    const Vertex v = static_cast<Vertex>(kN * x * x * x);
    if (u != v) edges.insert({u, v});
  }
  std::vector<Edge> list;
  for (const auto& [u, v] : edges) list.push_back({u, v});
  return DiGraph::FromEdges(kN, list);
}

TEST(ParallelBuildDeterminismTest, LabelStoreAccounting) {
  // A frozen build grows its labels in the construction label store
  // (labeling/label_store.h) and hands them over to the arenas. At every
  // worker count the sets must end construction holding at most 1.25x their
  // entries' bytes, the store must have unmapped every byte once the
  // arenas hold the labels, and labels and counters must be the sequential
  // build's.
  std::vector<NamedGraph> graphs;
  graphs.push_back(
      {"wkt_0.1", MaterializeDataset(FindDataset("WKT").value(), 0.1)});
  graphs.push_back({"skewed", SkewedGraph()});
  for (const NamedGraph& g : graphs) {
    const VertexOrdering order = DegreeOrdering(g.graph);
    LabelBuildStats sequential_stats;
    const FrozenIndex sequential =
        FrozenIndex::Build(g.graph, order, CscIndex::Options(),
                           &sequential_stats);
    for (unsigned threads :
         {0u, 1u, 2u, 4u, 8u, 2 * ThreadPool::DefaultThreadCount()}) {
      const std::string context =
          g.name + " threads=" + std::to_string(threads);
      CscIndex::Options options;
      options.build_threads = threads;
      LabelBuildStats stats;
      const FrozenIndex frozen =
          FrozenIndex::Build(g.graph, order, options, &stats);
      EXPECT_EQ(frozen, sequential) << context;
      ExpectStatsEqual(stats, sequential_stats, context);
      EXPECT_EQ(stats.store.live_bytes,
                frozen.TotalEntries() * sizeof(LabelEntry))
          << context;
      EXPECT_LE(stats.store.capacity_bytes * 4, stats.store.live_bytes * 5)
          << context;
      EXPECT_GE(stats.store.mapped_high_water_bytes,
                stats.store.capacity_bytes)
          << context;
      EXPECT_EQ(stats.store_mapped_after_release, 0u) << context;
    }
  }
}

TEST(ParallelBuildDeterminismTest, BackendPayloadsByteIdentical) {
  // Every labeling-based backend with a persistent form: the serialized
  // payload of a parallel build must be byte-identical to the sequential
  // build's.
  const std::vector<std::string> backends = {"csc", "frozen"};
  DiGraph graph = GeneratePreferentialAttachment(500, 3, 0.2, 21);
  for (const std::string& name : backends) {
    std::unique_ptr<CycleIndex> oracle = MakeBackend(name);
    ASSERT_NE(oracle, nullptr) << name;
    oracle->Build(graph);
    std::string sequential_payload;
    ASSERT_TRUE(oracle->SaveTo(sequential_payload)) << name;
    for (unsigned threads : kThreadCounts) {
      std::unique_ptr<CycleIndex> backend = MakeBackend(name);
      CycleIndex::BuildOptions options;
      options.num_threads = threads;
      backend->Build(graph, options);
      std::string payload;
      ASSERT_TRUE(backend->SaveTo(payload)) << name;
      EXPECT_EQ(payload, sequential_payload)
          << name << " threads=" << threads;
      EXPECT_EQ(backend->Stats().build_threads, threads) << name;
    }
  }
}

TEST(ParallelBuildDeterminismTest, FrozenBuildMatchesCompactedFullBuild) {
  // FrozenIndex::Build writes only the two served label sets; at every
  // thread count, with and without reserved vertices, it must equal the
  // frozen compacted full build (which derives its other two sets
  // afterwards).
  for (const NamedGraph& g : ConformanceGraphs()) {
    VertexOrdering order = DegreeOrdering(g.graph);
    for (Vertex reserve : {0u, 3u}) {
      CscIndex::Options sequential_options;
      sequential_options.reserve_vertices = reserve;
      const FrozenIndex expected = FrozenIndex::FromCompact(
          CompactIndex::FromIndex(
              CscIndex::Build(g.graph, order, sequential_options)));
      std::vector<unsigned> thread_counts = {0};
      thread_counts.insert(thread_counts.end(), std::begin(kThreadCounts),
                           std::end(kThreadCounts));
      for (unsigned threads : thread_counts) {
        CscIndex::Options options = sequential_options;
        options.build_threads = threads;
        EXPECT_EQ(FrozenIndex::Build(g.graph, order, options), expected)
            << g.name << " reserve=" << reserve << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelBuildDeterminismTest, HpSpcLabelingMatchesSequential) {
  for (const NamedGraph& g : ConformanceGraphs()) {
    VertexOrdering order = DegreeOrdering(g.graph);
    HpSpcIndex sequential = HpSpcIndex::Build(g.graph, order);
    for (unsigned threads : kThreadCounts) {
      HpSpcIndex parallel = HpSpcIndex::Build(g.graph, order, threads);
      std::string context = g.name + " threads=" + std::to_string(threads);
      EXPECT_EQ(parallel.labeling(), sequential.labeling()) << context;
      ExpectStatsEqual(parallel.build_stats(), sequential.build_stats(),
                       context);
    }
  }
}

TEST(ParallelBuildDeterminismTest, PlainBuilderWithoutDistancePruning) {
  // Pruning disabled => staging can never be dirty; the commit replay alone
  // must still reproduce the sequential labeling.
  DiGraph graph = GeneratePreferentialAttachment(300, 3, 0.2, 31);
  VertexOrdering order = DegreeOrdering(graph);
  PrunedBfsOptions sequential_options;
  sequential_options.distance_pruning = false;
  HubLabeling sequential;
  sequential.Resize(graph.num_vertices());
  LabelBuildStats sequential_stats;
  BuildPlainHubLabeling(graph, order, sequential, sequential_stats,
                        sequential_options);
  for (unsigned threads : kThreadCounts) {
    PrunedBfsOptions options = sequential_options;
    options.num_threads = threads;
    HubLabeling parallel;
    parallel.Resize(graph.num_vertices());
    LabelBuildStats stats;
    BuildPlainHubLabeling(graph, order, parallel, stats, options);
    EXPECT_EQ(parallel, sequential) << "threads=" << threads;
    ExpectStatsEqual(stats, sequential_stats,
                     "no-pruning threads=" + std::to_string(threads));
  }
}

TEST(ParallelBuildDeterminismTest, ReservedVerticesMatchSequential) {
  DiGraph graph = GenerateSmallWorld(300, 3, 0.15, 41);
  VertexOrdering order = DegreeOrdering(graph);
  CscIndex::Options sequential_options;
  sequential_options.reserve_vertices = 8;
  CscIndex sequential = CscIndex::Build(graph, order, sequential_options);
  for (unsigned threads : {2u, 8u}) {
    CscIndex::Options options = sequential_options;
    options.build_threads = threads;
    CscIndex parallel = CscIndex::Build(graph, order, options);
    EXPECT_EQ(parallel.served_labels(), sequential.served_labels())
        << "threads=" << threads;
  }
}

TEST(ParallelBuildDeterminismTest, ParallelBuildAnswersQueries) {
  // Belt and braces next to the bit-identity checks: the parallel build's
  // query answers agree with the sequential build's on every vertex.
  DiGraph graph = GeneratePreferentialAttachment(400, 3, 0.25, 51);
  VertexOrdering order = DegreeOrdering(graph);
  CscIndex sequential = CscIndex::Build(graph, order);
  CscIndex::Options options;
  options.build_threads = 4;
  CscIndex parallel = CscIndex::Build(graph, order, options);
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(parallel.Query(v), sequential.Query(v)) << "vertex " << v;
  }
}

}  // namespace
}  // namespace csc
