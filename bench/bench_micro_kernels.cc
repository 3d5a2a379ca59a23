// Micro-benchmarks (google-benchmark) of the hot kernels behind every query
// and construction step: label-entry packing, label-set joins and upserts,
// the packed-arena join kernels (linear baseline vs. the shipped dispatch —
// block intersection, SIMD-skip merge, galloping — across run-length
// skews), and end-to-end SCCnt queries on a built index.
//
// lint:allow-no-json-bench(google-benchmark owns the output format here;
// use --benchmark_format=json for machine-readable rows instead of the
// project's JsonBenchReporter)
//
// CI runs this binary in smoke mode (--benchmark_min_time=0.01) on both
// architectures so every kernel variant (scalar / SSE2 / NEON / galloping)
// compiles and executes — the kernel conformance tests check their answers;
// build with -DCSC_NO_SIMD=ON to pin the scalar fallback.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "baseline/bfs_cycle.h"
#include "core/label_arena.h"
#include "csc/csc_index.h"
#include "graph/generators.h"
#include "graph/ordering.h"
#include "csc/frozen_index.h"
#include "labeling/label_set.h"
#include "util/random.h"

namespace csc {
namespace {

LabelSet MakeLabelSet(size_t entries, uint64_t seed, Rank stride) {
  Rng rng(seed);
  LabelSet labels;
  Rank rank = 0;
  for (size_t i = 0; i < entries; ++i) {
    rank += 1 + static_cast<Rank>(rng.NextBounded(stride));
    labels.Append(LabelEntry(rank, static_cast<Dist>(rng.NextBounded(50)),
                             1 + rng.NextBounded(5)));
  }
  return labels;
}

void BM_LabelEntryPackUnpack(benchmark::State& state) {
  uint64_t acc = 0;
  Vertex hub = 123;
  for (auto _ : state) {
    LabelEntry e(hub, 45, 678);
    acc += e.hub() + e.dist() + e.count();
    hub = static_cast<Vertex>(acc & LabelEntry::kMaxHub);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_LabelEntryPackUnpack);

void BM_JoinLabels(benchmark::State& state) {
  size_t entries = static_cast<size_t>(state.range(0));
  // Stride 3 gives roughly one common hub per three entries.
  LabelSet out = MakeLabelSet(entries, 1, 3);
  LabelSet in = MakeLabelSet(entries, 2, 3);
  for (auto _ : state) {
    JoinResult r = JoinLabels(out, in);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * entries * 2);
}
BENCHMARK(BM_JoinLabels)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

// A label set of `entries` ranks spread across a shared universe, so two
// runs of different lengths still interleave end to end — the shape where
// the join kernels' skipping actually matters (same-stride runs of skewed
// lengths would just exhaust the short side early).
LabelSet RunSpanningUniverse(size_t entries, Rank universe, uint64_t seed) {
  Rng rng(seed);
  LabelSet labels;
  Rank stride = universe / static_cast<Rank>(entries);
  if (stride < 1) stride = 1;
  Rank rank = 0;
  for (size_t i = 0; i < entries; ++i) {
    rank += 1 + static_cast<Rank>(rng.NextBounded(2 * stride - 1));
    labels.Append(LabelEntry(rank, static_cast<Dist>(rng.NextBounded(50)),
                             1 + rng.NextBounded(5)));
  }
  return labels;
}

// The packed-packed arena join across run-length skews: Args({na, nb}).
// BM_ArenaJoin runs the shipped kernel (4-wide block intersection for
// balanced runs, SIMD-skip merge from kSimdSkewRatio, galloping from
// kGallopSkewRatio); BM_ArenaJoinLinear is the reference linear merge.
//
// Each shape rotates through >= 256 distinct run pairs in a shuffled order,
// as a query sweep does. Repeating one pair lets the branch predictor learn
// its merge path, which flatters the branchy linear merge. Each side's runs
// stay within kSideBudgetBytes so the working set is L2-resident: the
// bench times the kernels, not memory.
constexpr size_t kMinDistinctPairs = 256;
constexpr size_t kSideBudgetBytes = 256 * 1024;

void ArenaJoinBench(benchmark::State& state, bool linear) {
  size_t na = static_cast<size_t>(state.range(0));
  size_t nb = static_cast<size_t>(state.range(1));
  Rank universe = static_cast<Rank>(4 * (na > nb ? na : nb));
  // As many b runs as fit the budget (up to 16), then enough a runs that
  // the pairs number at least kMinDistinctPairs.
  size_t b_runs =
      std::clamp<size_t>(kSideBudgetBytes / (nb * sizeof(LabelEntry)), 1, 16);
  size_t a_runs = (kMinDistinctPairs + b_runs - 1) / b_runs;
  std::vector<LabelSet> a_sets;
  a_sets.reserve(a_runs);
  for (size_t i = 0; i < a_runs; ++i) {
    a_sets.push_back(RunSpanningUniverse(na, universe, 1000 + i));
  }
  std::vector<LabelSet> b_sets;
  b_sets.reserve(b_runs);
  for (size_t i = 0; i < b_runs; ++i) {
    b_sets.push_back(RunSpanningUniverse(nb, universe, 5000 + i));
  }
  LabelArena a = LabelArena::FromLabelSets(a_sets);
  LabelArena b = LabelArena::FromLabelSets(b_sets);
  std::vector<std::pair<Vertex, Vertex>> pairs;
  pairs.reserve(a_runs * b_runs);
  for (size_t i = 0; i < a_runs; ++i) {
    for (size_t j = 0; j < b_runs; ++j) {
      pairs.emplace_back(static_cast<Vertex>(i), static_cast<Vertex>(j));
    }
  }
  Rng(21).Shuffle(pairs);
  size_t next = 0;
  for (auto _ : state) {
    auto [s, t] = pairs[next];
    next = next + 1 == pairs.size() ? 0 : next + 1;
    JoinResult r = linear ? LabelArena::JoinLinear(a, s, b, t)
                          : LabelArena::Join(a, s, b, t);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * (na + nb));
}

void BM_ArenaJoin(benchmark::State& state) { ArenaJoinBench(state, false); }
void BM_ArenaJoinLinear(benchmark::State& state) {
  ArenaJoinBench(state, true);
}
#define CSC_ARENA_JOIN_ARGS               \
  Args({16, 16})                          \
      ->Args({64, 64})                    \
      ->Args({256, 256})                  \
      ->Args({1024, 1024})                \
      ->Args({32, 64})                    \
      ->Args({64, 256})                   \
      ->Args({64, 512})                   \
      ->Args({64, 2048})                  \
      ->Args({16, 256})                   \
      ->Args({16, 4096})                  \
      ->Args({64, 4096})                  \
      ->Args({256, 16384})
BENCHMARK(BM_ArenaJoin)->CSC_ARENA_JOIN_ARGS;
BENCHMARK(BM_ArenaJoinLinear)->CSC_ARENA_JOIN_ARGS;
#undef CSC_ARENA_JOIN_ARGS

void BM_LabelSetFind(benchmark::State& state) {
  LabelSet labels = MakeLabelSet(static_cast<size_t>(state.range(0)), 3, 2);
  Rng rng(4);
  Rank max_rank = labels.entries().back().hub();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        labels.Find(static_cast<Rank>(rng.NextBounded(max_rank + 1))));
  }
}
BENCHMARK(BM_LabelSetFind)->Arg(32)->Arg(512);

void BM_LabelSetInsertOrReplace(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    LabelSet labels = MakeLabelSet(64, 6, 2);
    state.ResumeTiming();
    for (int i = 0; i < 16; ++i) {
      labels.InsertOrReplace(
          LabelEntry(static_cast<Rank>(rng.NextBounded(256)), 3, 1));
    }
    benchmark::DoNotOptimize(labels);
  }
}
BENCHMARK(BM_LabelSetInsertOrReplace);

// End-to-end query kernels on a mid-sized power-law graph.
class QueryFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (!index_) {
      graph_ = GeneratePreferentialAttachment(20000, 2, 0.1, 99);
      order_ = DegreeOrdering(graph_);
      index_ = std::make_unique<CscIndex>(CscIndex::Build(graph_, order_));
    }
  }

 protected:
  static DiGraph graph_;
  static VertexOrdering order_;
  static std::unique_ptr<CscIndex> index_;
};
DiGraph QueryFixture::graph_;
VertexOrdering QueryFixture::order_;
std::unique_ptr<CscIndex> QueryFixture::index_;

BENCHMARK_F(QueryFixture, CscQuery)(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    Vertex v = static_cast<Vertex>(rng.NextBounded(graph_.num_vertices()));
    benchmark::DoNotOptimize(index_->Query(v));
  }
}

BENCHMARK_F(QueryFixture, BfsQuery)(benchmark::State& state) {
  Rng rng(8);
  BfsCycleCounter counter(graph_);
  for (auto _ : state) {
    Vertex v = static_cast<Vertex>(rng.NextBounded(graph_.num_vertices()));
    benchmark::DoNotOptimize(counter.CountCycles(v));
  }
}

BENCHMARK_F(QueryFixture, FrozenQuery)(benchmark::State& state) {
  FrozenIndex frozen = FrozenIndex::FromIndex(*index_);
  Rng rng(9);
  for (auto _ : state) {
    Vertex v = static_cast<Vertex>(rng.NextBounded(graph_.num_vertices()));
    benchmark::DoNotOptimize(frozen.Query(v));
  }
}

BENCHMARK_F(QueryFixture, EdgeQuery)(benchmark::State& state) {
  // Through-edge queries on random vertex pairs (present or not: the query
  // cost is a label join either way).
  Rng rng(11);
  for (auto _ : state) {
    Vertex u = static_cast<Vertex>(rng.NextBounded(graph_.num_vertices()));
    Vertex v = static_cast<Vertex>(rng.NextBounded(graph_.num_vertices()));
    benchmark::DoNotOptimize(index_->QueryThroughEdge(u, v));
  }
}

}  // namespace
}  // namespace csc

BENCHMARK_MAIN();
