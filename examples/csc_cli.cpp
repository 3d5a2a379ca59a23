// csc_cli — command-line front end for the library:
//
//   csc_cli build <graph.edges> <index.csc>        build + persist an index
//   csc_cli query <index-or-graph> <v> [v2 ...]    SCCnt queries
//   csc_cli screen <index-or-graph> <max_len> <top_k>  fraud-style screening
//   csc_cli stats <index-or-graph>                 index statistics
//   csc_cli girth <index-or-graph>                 girth + length histogram
//   csc_cli backends                               list registered backends
//   csc_cli graphstats <graph.edges>               structural graph stats
//   csc_cli casestudy <graph.edges> <v> <out.dot>  Figure 13 DOT export
//   csc_cli churn <graph.edges> <rounds> <k> [out] update-churn demo/smoke
//
// Every index-serving command accepts `--backend NAME` (default "csc"; see
// `csc_cli backends`) and goes through the polymorphic CycleIndex
// interface, so engines are a runtime flag rather than a compile-time
// choice. Commands taking <index-or-graph> accept either a persisted index
// file (loaded when the backend has a load path) or a SNAP-style edge list
// (the backend is then built in-process — the only option for index-free
// backends like "bfs").
//
// `--shards N` serves through the sharded tier (serving/sharded_engine.h):
// `build` writes one multi-shard bundle of N per-shard payloads, and the
// serving commands route queries by vertex owner and fan sweeps across the
// shards. Multi-shard index files are auto-detected on load (their own
// shard count wins over the flag).
//
// `--async-updates` (with the `churn` command) lands batches off the
// writer thread: each ApplyUpdates batch returns after validation with an
// epoch token and the snapshot swap follows asynchronously, with Drain()
// as the read-your-writes barrier. `--repair` lands the batches of
// frozen as bounded label patches against a pinned-ordering shadow index
// instead of full rebuilds, as "csc" always does (serving/engine.h
// RepairOptions); the optional churn `[<index.out>]` argument persists the
// post-churn index so the repaired bytes can be compared against a
// from-scratch build.
//
// Graphs are SNAP-style edge lists (see graph/graph_io.h). Indexes are
// CycleIndex::SaveTo payloads inside the checksummed file envelope of
// csc/index_io.h (legacy raw compact serializations still load). An index
// file the chosen backend cannot load (any file under "bfs"/"hpspc") is
// served by the first saving backend that loads it, with a note on stderr.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/cycle_index.h"
#include "csc/girth.h"
#include "csc/index_io.h"
#include "dynamic/edge_update.h"
#include "graph/dot_export.h"
#include "graph/graph_io.h"
#include "graph/ordering.h"
#include "graph/stats.h"
#include "graph/subgraph.h"
#include "serving/sharded_engine.h"
#include "util/env.h"
#include "util/timer.h"
#include "workload/update_workload.h"

using namespace csc;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  csc_cli [--backend NAME] [--shards N] [--build-threads T] build "
      "<graph.edges> <index.csc>\n"
      "  csc_cli [--backend NAME] [--shards N] [--mmap] query <index-or-graph> <vertex> [...]\n"
      "  csc_cli [--backend NAME] [--shards N] [--mmap] screen <index-or-graph> <max_len> <top_k>\n"
      "  csc_cli [--backend NAME] [--shards N] [--mmap] stats <index-or-graph>\n"
      "  csc_cli [--backend NAME] [--shards N] [--mmap] girth <index-or-graph>\n"
      "  csc_cli backends\n"
      "  csc_cli graphstats <graph.edges>\n"
      "  csc_cli casestudy <graph.edges> <vertex> <out.dot>\n"
      "  csc_cli [--backend NAME] [--shards N] [--async-updates] [--repair] "
      "[--max-pending N] churn <graph.edges> <rounds> "
      "<batch_edges> [<index.out>]\n"
      "--shards N builds/serves through the sharded engine (N per-shard\n"
      "backends; multi-shard index files are auto-detected on load)\n"
      "--build-threads T constructs labelings with the rank-batched\n"
      "parallel builder on T workers (0 = sequential; output is\n"
      "bit-identical either way); also applies to churn rebuilds\n"
      "--mmap serves index files from a shared read-only mapping (zero\n"
      "deserialization copy for the flat arena backends)\n"
      "--async-updates applies churn batches asynchronously: ApplyUpdates\n"
      "returns after validation, batches land off the writer thread\n"
      "--repair lands churn batches as label patches against a\n"
      "pinned-ordering shadow index instead of full rebuilds (backend\n"
      "frozen; csc always repairs); a batch whose landing\n"
      "fails rolls back at once\n"
      "--max-pending N caps the per-shard async rebuild backlog at N\n"
      "batches: churn batches past the cap shed with kOverloaded instead\n"
      "of growing the queue (0 = uncapped); admission counters print\n"
      "after churn\n"
      "churn's optional <index.out> persists the post-churn index for\n"
      "byte-comparison against a from-scratch build\n"
      "backends: ");
  for (const std::string& name : AllBackendNames()) {
    std::fprintf(stderr, "%s ", name.c_str());
  }
  std::fprintf(stderr, "(default %s)\n", kDefaultBackendName);
  return 2;
}

// The saving backends other than `backend_name`, in registry order: the
// fallbacks that serve an index file the chosen backend cannot load.
std::vector<std::string> FallbackLoaders(const std::string& backend_name) {
  std::vector<std::string> names;
  for (const std::string& name : AllBackendNames()) {
    if (name != backend_name && MakeBackend(name)->supports_save()) {
      names.push_back(name);
    }
  }
  return names;
}

// Loads a persisted index or builds the backend from an edge list,
// whichever `path` holds. The file is read (and CRC-verified) once; the
// payload is then routed to the right backend.
std::unique_ptr<CycleIndex> LoadOrBuild(const std::string& path,
                                        const std::string& backend_name,
                                        unsigned build_threads) {
  std::unique_ptr<CycleIndex> backend = MakeBackend(backend_name);
  if (backend == nullptr) {
    std::fprintf(stderr, "unknown backend '%s' (see `csc_cli backends`)\n",
                 backend_name.c_str());
    return nullptr;
  }
  // 1. The checksummed envelope.
  std::string envelope_error;
  std::optional<std::string> payload =
      ReadVerifiedPayload(path, &envelope_error);
  if (payload) {
    if (backend->LoadFrom(*payload)) return backend;
    // A valid index file the chosen backend cannot load (the "bfs"/"hpspc"
    // baselines need the graph to answer queries): serve it through the
    // first saving backend that loads it instead of failing the `build` ->
    // `query` flow.
    for (const std::string& name : FallbackLoaders(backend_name)) {
      std::unique_ptr<CycleIndex> fallback = MakeBackend(name);
      if (fallback->LoadFrom(*payload)) {
        std::fprintf(
            stderr,
            "note: backend '%s' cannot load %s; serving it via '%s' (pass "
            "--backend csc/frozen to choose explicitly, or a "
            "graph file to build '%s')\n",
            backend_name.c_str(), path.c_str(), name.c_str(),
            backend_name.c_str());
        return fallback;
      }
    }
    envelope_error = "backend '" + backend_name +
                     "' cannot load this payload format";
  }
  auto bytes = ReadFileToString(path);
  if (!bytes) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return nullptr;
  }
  // 2. A legacy raw payload (no envelope).
  if (backend->LoadFrom(*bytes)) return backend;
  // 3. An edge-list graph: build in-process.
  auto graph = LoadEdgeListFile(path);
  if (graph) {
    Timer timer;
    CycleIndex::BuildOptions build_options;
    build_options.num_threads = build_threads;
    backend->Build(*graph, build_options);
    std::fprintf(stderr,
                 "built backend '%s' from %s in %.3f s (threads=%u)\n",
                 backend_name.c_str(), path.c_str(), timer.ElapsedSeconds(),
                 build_threads);
    return backend;
  }
  std::fprintf(stderr, "%s: not a loadable index for backend '%s' (%s) and "
               "not an edge list\n",
               path.c_str(), backend_name.c_str(), envelope_error.c_str());
  return nullptr;
}

// The serving handle the index-serving commands run against: one backend
// (the classic path) or a ShardedEngine (--shards N, or a multi-shard index
// file, which is auto-detected by its magic).
struct Serving {
  std::unique_ptr<CycleIndex> single;
  std::unique_ptr<ShardedEngine> sharded;

  Vertex num_vertices() const {
    return sharded ? sharded->num_vertices() : single->num_vertices();
  }
  CycleCount Query(Vertex v) {
    return sharded ? sharded->Query(v) : single->CountShortestCycles(v);
  }
  GirthInfo Girth() { return sharded ? sharded->Girth() : single->Girth(); }
};

std::optional<Serving> LoadOrBuildServing(const std::string& path,
                                          const std::string& backend_name,
                                          uint32_t shards, bool use_mmap,
                                          unsigned build_threads) {
  Serving serving;
  // The zero-copy path (--mmap): map and CRC-verify the file once, then
  // route on the payload — K shard engines share the one mapping, single
  // indexes serve it directly. Anything that does not resolve here (edge
  // lists, backends without a view path) falls through to the classic
  // copying path and its fallback chain.
  if (use_mmap) {
    std::string map_error;
    std::shared_ptr<IndexFile> file = IndexFile::Open(path, &map_error);
    if (file) {
      if (IsShardedPayload(file->payload(), file->payload_size())) {
        ShardedEngineOptions options;
        options.backend = backend_name;
        auto engine = std::make_unique<ShardedEngine>(options);
        if (!engine->valid()) {
          map_error = "unknown backend '" + backend_name + "'";
        } else if (engine->LoadFromMapping(file, &map_error)) {
          std::fprintf(stderr,
                       "loaded %u-shard index from %s (shards share one "
                       "read-only mapping)\n",
                       engine->num_shards(), path.c_str());
          serving.sharded = std::move(engine);
          return serving;
        }
      } else if (shards <= 1) {
        BackendLoadResult mapped = LoadBackendFromMapping(file, backend_name);
        if (mapped.ok()) {
          std::fprintf(stderr, "serving %s from a %s (%zu-byte payload)\n",
                       path.c_str(),
                       file->mapped() ? "read-only mapping" : "heap buffer",
                       file->payload_size());
          serving.single = std::move(mapped.index);
          return serving;
        }
        map_error = mapped.error;
      }
    }
    if (!map_error.empty()) {
      std::fprintf(stderr,
                   "note: --mmap could not serve %s zero-copy (%s); "
                   "falling back to the copying load path\n",
                   path.c_str(), map_error.c_str());
    }
  }
  // A multi-shard index file routes to the sharded engine regardless of
  // --shards: the bundle's own shard count wins.
  std::string envelope_error;
  std::optional<std::string> payload =
      ReadVerifiedPayload(path, &envelope_error);
  if (payload && IsShardedPayload(*payload)) {
    ShardedEngineOptions options;
    options.backend = backend_name;
    auto engine = std::make_unique<ShardedEngine>(options);
    if (!engine->valid()) {
      std::fprintf(stderr, "unknown backend '%s' (see `csc_cli backends`)\n",
                   backend_name.c_str());
      return std::nullopt;
    }
    if (!engine->LoadFrom(*payload)) {
      // Same fallback as the single-backend path: the first saving
      // backend that loads the bundle serves it.
      bool recovered = false;
      for (const std::string& name : FallbackLoaders(backend_name)) {
        ShardedEngineOptions fallback_options;
        fallback_options.backend = name;
        auto fallback = std::make_unique<ShardedEngine>(fallback_options);
        if (fallback->LoadFrom(*payload)) {
          std::fprintf(stderr,
                       "note: backend '%s' cannot load the shard payloads "
                       "of %s; serving it via '%s' (pass --backend "
                       "csc/frozen to choose explicitly)\n",
                       backend_name.c_str(), path.c_str(), name.c_str());
          engine = std::move(fallback);
          recovered = true;
          break;
        }
      }
      if (!recovered) {
        std::fprintf(stderr,
                     "%s: multi-shard bundle does not load into backend '%s' "
                     "(try --backend csc/frozen)\n",
                     path.c_str(), backend_name.c_str());
        return std::nullopt;
      }
    }
    std::fprintf(stderr, "loaded %u-shard index from %s\n",
                 engine->num_shards(), path.c_str());
    serving.sharded = std::move(engine);
    return serving;
  }
  if (shards <= 1) {
    serving.single = LoadOrBuild(path, backend_name, build_threads);
    if (!serving.single) return std::nullopt;
    return serving;
  }
  // --shards N over anything else requires a graph to partition.
  auto graph = LoadEdgeListFile(path);
  if (!graph) {
    std::fprintf(stderr,
                 "%s: --shards needs a multi-shard index file or an "
                 "edge-list graph (single-shard index files cannot be "
                 "re-partitioned without the graph)\n",
                 path.c_str());
    return std::nullopt;
  }
  ShardedEngineOptions options;
  options.backend = backend_name;
  options.num_shards = shards;
  options.build_threads = build_threads;
  auto engine = std::make_unique<ShardedEngine>(options);
  if (!engine->valid()) {
    std::fprintf(stderr, "unknown backend '%s' (see `csc_cli backends`)\n",
                 backend_name.c_str());
    return std::nullopt;
  }
  Timer timer;
  if (!engine->Build(*graph)) {
    std::fprintf(stderr, "failed to build %u-shard '%s' from %s\n", shards,
                 backend_name.c_str(), path.c_str());
    return std::nullopt;
  }
  std::fprintf(stderr, "built %u-shard backend '%s' from %s in %.3f s\n",
               shards, backend_name.c_str(), path.c_str(),
               timer.ElapsedSeconds());
  serving.sharded = std::move(engine);
  return serving;
}

const char* BackendDescription(const std::string& name) {
  if (name == "csc") return "packed flat arena, kept current by §V repair";
  if (name == "frozen") return "packed flat arena, §V repair only with --repair";
  if (name == "bfs") return "index-free Algorithm 1 baseline";
  if (name == "hpspc") return "HP-SPC baseline labeling (SIGMOD'20)";
  return "";
}

int CmdBackends() {
  std::printf("%-12s %-6s %s\n", "backend", "save", "description");
  // Driven by the registry, so newly registered backends appear here
  // without touching the CLI.
  for (const std::string& name : AllBackendNames()) {
    std::unique_ptr<CycleIndex> backend = MakeBackend(name);
    if (backend == nullptr) continue;
    std::printf("%-12s %-6s %s\n", name.c_str(),
                backend->supports_save() ? "yes" : "no",
                BackendDescription(name));
  }
  return 0;
}

int CmdBuild(const std::string& backend_name, uint32_t shards,
             unsigned build_threads, const std::string& graph_path,
             const std::string& index_path) {
  auto graph = LoadEdgeListFile(graph_path);
  if (!graph) {
    std::fprintf(stderr, "cannot parse %s\n", graph_path.c_str());
    return 1;
  }
  std::printf("loaded %s: %u vertices, %llu edges\n", graph_path.c_str(),
              graph->num_vertices(),
              static_cast<unsigned long long>(graph->num_edges()));
  if (shards > 1) {
    // Sharded build: K per-shard payloads in one multi-shard bundle.
    ShardedEngineOptions options;
    options.backend = backend_name;
    options.num_shards = shards;
    options.build_threads = build_threads;
    ShardedEngine engine(options);
    if (!engine.valid()) {
      std::fprintf(stderr, "unknown backend '%s'\n", backend_name.c_str());
      return 1;
    }
    Timer timer;
    if (!engine.Build(*graph)) {
      std::fprintf(stderr, "failed to build %u-shard '%s'\n", shards,
                   backend_name.c_str());
      return 1;
    }
    std::string payload;
    if (!engine.SaveTo(payload)) {
      std::fprintf(stderr,
                   "backend '%s' has no persistent form; use csc or frozen "
                   "for `build`\n",
                   backend_name.c_str());
      return 1;
    }
    std::printf(
        "built %u-shard backend '%s' in %.3f s (%s resident, threads=%u)\n",
        shards, backend_name.c_str(), timer.ElapsedSeconds(),
        HumanBytes(engine.MemoryBytes()).c_str(), build_threads);
    if (!SavePayloadToFile(payload, index_path)) {
      std::fprintf(stderr, "cannot write %s\n", index_path.c_str());
      return 1;
    }
    std::error_code ec;
    uintmax_t on_disk = std::filesystem::file_size(index_path, ec);
    std::printf("wrote %s (%u shards, %s on disk)\n", index_path.c_str(),
                shards, HumanBytes(ec ? 0 : on_disk).c_str());
    return 0;
  }
  std::unique_ptr<CycleIndex> backend = MakeBackend(backend_name);
  if (backend == nullptr) {
    std::fprintf(stderr, "unknown backend '%s'\n", backend_name.c_str());
    return 1;
  }
  if (!backend->supports_save()) {
    // Reject before paying for the build.
    std::fprintf(stderr,
                 "backend '%s' has no persistent form; use csc or frozen "
                 "for `build`\n",
                 backend_name.c_str());
    return 1;
  }
  Timer timer;
  CycleIndex::BuildOptions build_options;
  build_options.num_threads = build_threads;
  backend->Build(*graph, build_options);
  BackendStats stats = backend->Stats();
  std::printf(
      "built backend '%s' in %.3f s (%llu entries, %s resident, "
      "threads=%u)\n",
      backend_name.c_str(), timer.ElapsedSeconds(),
      static_cast<unsigned long long>(stats.label_entries),
      HumanBytes(stats.memory_bytes).c_str(), stats.build_threads);
  if (!SaveBackendToFile(*backend, index_path)) {
    std::fprintf(stderr, "cannot write %s\n", index_path.c_str());
    return 1;
  }
  std::error_code ec;
  uintmax_t on_disk = std::filesystem::file_size(index_path, ec);
  std::printf("wrote %s (%s on disk)\n", index_path.c_str(),
              HumanBytes(ec ? 0 : on_disk).c_str());
  return 0;
}

int CmdGirth(const std::string& backend_name, uint32_t shards,
             bool use_mmap, unsigned build_threads, const std::string& path) {
  auto serving =
      LoadOrBuildServing(path, backend_name, shards, use_mmap, build_threads);
  if (!serving) return 1;
  Vertex n = serving->num_vertices();
  GirthInfo info = serving->Girth();
  if (info.girth == kInfDist) {
    std::printf("graph is acyclic (no girth)\n");
    return 0;
  }
  std::printf("girth           : %u\n", info.girth);
  std::printf("girth vertices  : %llu (e.g. vertex %u)\n",
              static_cast<unsigned long long>(info.num_girth_vertices),
              info.example_vertex);
  CycleLengthHistogram histogram = ComputeCycleLengthHistogram(
      n, [&](Vertex v) { return serving->Query(v); });
  std::printf("length histogram:\n");
  for (size_t len = 0; len < histogram.vertices_by_length.size(); ++len) {
    if (histogram.vertices_by_length[len] == 0) continue;
    std::printf("  len %-4zu %llu vertices\n", len,
                static_cast<unsigned long long>(
                    histogram.vertices_by_length[len]));
  }
  std::printf("  acyclic  %llu vertices\n",
              static_cast<unsigned long long>(histogram.acyclic_vertices));
  return 0;
}

int CmdGraphStats(const std::string& graph_path) {
  auto graph = LoadEdgeListFile(graph_path);
  if (!graph) {
    std::fprintf(stderr, "cannot parse %s\n", graph_path.c_str());
    return 1;
  }
  GraphStats stats = ComputeGraphStats(*graph);
  std::printf("vertices        : %u\n", stats.num_vertices);
  std::printf("edges           : %llu\n",
              static_cast<unsigned long long>(stats.num_edges));
  std::printf("mean degree     : %.2f\n", stats.mean_degree);
  std::printf("max out/in deg  : %zu / %zu\n", stats.max_out_degree,
              stats.max_in_degree);
  std::printf("isolated        : %llu\n",
              static_cast<unsigned long long>(stats.isolated_vertices));
  std::printf("reciprocity     : %.3f (%llu edges)\n", stats.reciprocity,
              static_cast<unsigned long long>(stats.reciprocal_edges));
  std::printf("avg distance    : ~%.2f (sampled)\n",
              EstimateAverageDistance(*graph, 16, 42));
  std::printf("degree histogram (log2 bins):\n");
  for (size_t bin = 0; bin < stats.degree_histogram.size(); ++bin) {
    std::printf("  deg in [%d, %d): %llu vertices\n", (1 << bin) - 1,
                (1 << (bin + 1)) - 1,
                static_cast<unsigned long long>(stats.degree_histogram[bin]));
  }
  return 0;
}

int CmdCaseStudy(const std::string& graph_path, Vertex center,
                 const std::string& dot_path) {
  auto graph = LoadEdgeListFile(graph_path);
  if (!graph) {
    std::fprintf(stderr, "cannot parse %s\n", graph_path.c_str());
    return 1;
  }
  if (center >= graph->num_vertices()) {
    std::fprintf(stderr, "vertex %u out of range (n=%u)\n", center,
                 graph->num_vertices());
    return 1;
  }
  Subgraph sub = ShortestCycleSubgraph(*graph, center);
  if (sub.graph.num_vertices() == 0) {
    std::printf("no cycle passes through vertex %u; nothing to render\n",
                center);
    return 0;
  }
  std::unique_ptr<CycleIndex> index = MakeBackend(kDefaultBackendName);
  index->Build(*graph);
  std::string dot = RenderCycleStudyDot(
      sub, [&](Vertex v) { return index->CountShortestCycles(v); },
      "cycles_through_" + std::to_string(center));
  if (!WriteStringToFile(dot_path, dot)) {
    std::fprintf(stderr, "cannot write %s\n", dot_path.c_str());
    return 1;
  }
  std::printf("wrote %s: %u vertices, %llu edges on the shortest cycles "
              "through %u (render with `dot -Tsvg`)\n",
              dot_path.c_str(), sub.graph.num_vertices(),
              static_cast<unsigned long long>(sub.graph.num_edges()), center);
  return 0;
}

int CmdQuery(const std::string& backend_name, uint32_t shards,
             bool use_mmap, unsigned build_threads, const std::string& path,
             char** vertices, int count) {
  auto serving =
      LoadOrBuildServing(path, backend_name, shards, use_mmap, build_threads);
  if (!serving) return 1;
  for (int i = 0; i < count; ++i) {
    auto v = static_cast<Vertex>(std::strtoul(vertices[i], nullptr, 10));
    if (v >= serving->num_vertices()) {
      std::printf("SCCnt(%u): vertex out of range (n=%u)\n", v,
                  serving->num_vertices());
      continue;
    }
    Timer timer;
    CycleCount cc = serving->Query(v);
    double us = timer.ElapsedMicros();
    if (cc.count == 0) {
      std::printf("SCCnt(%u) = 0 (no cycle)            [%.1f us]\n", v, us);
    } else {
      std::printf("SCCnt(%u) = %llu, length %u         [%.1f us]\n", v,
                  static_cast<unsigned long long>(cc.count), cc.length, us);
    }
  }
  return 0;
}

int CmdScreen(const std::string& backend_name, uint32_t shards,
              bool use_mmap, unsigned build_threads, const std::string& path,
              Dist max_len, size_t top_k) {
  auto serving =
      LoadOrBuildServing(path, backend_name, shards, use_mmap, build_threads);
  if (!serving) return 1;
  // Both forms rank through TopKByCycleCount: the sharded engine over its
  // fanned-out sweep, the single index over the loop below.
  std::vector<ScreeningHit> hits;
  if (serving->sharded) {
    hits = serving->sharded->Screen(max_len, top_k);
  } else {
    std::vector<CycleCount> answers(serving->num_vertices());
    for (Vertex v = 0; v < answers.size(); ++v) answers[v] = serving->Query(v);
    hits = TopKByCycleCount(answers, max_len, top_k);
  }
  std::printf("top %zu vertices with shortest cycles of length <= %u:\n",
              hits.size(), max_len);
  for (const ScreeningHit& hit : hits) {
    std::printf("  vertex %-8u count=%-6llu length=%u\n", hit.vertex,
                static_cast<unsigned long long>(hit.cycles.count),
                hit.cycles.length);
  }
  return 0;
}

const char* BreakerStateName(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kOpen:
      return "open";
    case CircuitBreaker::State::kHalfOpen:
      return "half-open";
  }
  return "?";
}

void PrintAdmissionCounters(const AdmissionStats& admission) {
  std::printf("admission ctr   : shed_batches=%llu blocked=%llu "
              "query_timeouts=%llu drains=%llu peak_pending=%llu\n",
              static_cast<unsigned long long>(admission.shed_batches),
              static_cast<unsigned long long>(admission.blocked_admissions),
              static_cast<unsigned long long>(admission.query_timeouts),
              static_cast<unsigned long long>(admission.drains),
              static_cast<unsigned long long>(admission.peak_pending_batches));
}

int CmdStats(const std::string& backend_name, uint32_t shards,
             bool use_mmap, unsigned build_threads, const std::string& path) {
  auto serving =
      LoadOrBuildServing(path, backend_name, shards, use_mmap, build_threads);
  if (!serving) return 1;
  if (serving->sharded) {
    const ShardedEngine& engine = *serving->sharded;
    std::printf("backend         : %s x %u shards\n",
                engine.backend_name().c_str(), engine.num_shards());
    std::printf("vertices        : %u\n", engine.num_vertices());
    std::printf("resident size   : %s (all shards)\n",
                HumanBytes(engine.MemoryBytes()).c_str());
    std::printf("%-6s %-10s %-12s %-12s %-12s %s\n", "shard", "owned",
                "internal-e", "cross-e", "entries", "resident");
    for (const ShardInfo& info : engine.Stats()) {
      std::printf("%-6u %-10u %-12llu %-12llu %-12llu %s\n", info.shard,
                  info.owned_vertices,
                  static_cast<unsigned long long>(info.internal_edges),
                  static_cast<unsigned long long>(info.cross_shard_edges),
                  static_cast<unsigned long long>(info.backend.label_entries),
                  HumanBytes(info.backend.memory_bytes).c_str());
    }
    PrintAdmissionCounters(engine.AdmissionStatsTotal());
    DegradedStats degraded = engine.degraded_stats();
    std::printf("fallback breaker: %s (%llu transitions, %llu fallback "
                "queries, %llu shed, %llu timeouts)\n",
                BreakerStateName(degraded.breaker_state),
                static_cast<unsigned long long>(degraded.breaker_transitions),
                static_cast<unsigned long long>(degraded.fallback_queries),
                static_cast<unsigned long long>(degraded.fallback_shed),
                static_cast<unsigned long long>(degraded.fallback_timeouts));
    return 0;
  }
  BackendStats stats = serving->single->Stats();
  std::printf("backend         : %s\n", stats.name.c_str());
  std::printf("vertices        : %llu\n",
              static_cast<unsigned long long>(stats.num_vertices));
  std::printf("label entries   : %llu\n",
              static_cast<unsigned long long>(stats.label_entries));
  std::printf("resident size   : %s\n",
              HumanBytes(stats.memory_bytes).c_str());
  std::printf("avg entries/vtx : %.2f\n",
              stats.num_vertices > 0
                  ? static_cast<double>(stats.label_entries) /
                        static_cast<double>(stats.num_vertices)
                  : 0.0);
  std::printf("supports        : save=%s\n",
              stats.supports_save ? "yes" : "no");
  std::printf("build           : %.3f s (threads=%u)\n", stats.build_seconds,
              stats.build_threads);
  // Admission counters live on the serving engines; a bare single index has
  // no admission gate to report (see the sharded branch above and churn).
  return 0;
}

// Update-churn demo/smoke: repeated insert/remove toggle batches through
// the sharded serving tier, reporting writer-visible admission latency and
// — in async mode — the drain time separating admission from the landed
// snapshot swaps.
int CmdChurn(const std::string& backend_name, uint32_t shards,
             bool async_updates, bool repair, uint64_t max_pending,
             unsigned build_threads,
             const std::string& graph_path, size_t rounds, size_t batch_edges,
             const std::string& index_out) {
  auto graph = LoadEdgeListFile(graph_path);
  if (!graph) {
    std::fprintf(stderr, "cannot parse %s\n", graph_path.c_str());
    return 1;
  }
  ShardedEngineOptions options;
  options.backend = backend_name;
  options.num_shards = shards;
  options.async_updates = async_updates;
  options.build_threads = build_threads;
  options.repair.enabled = repair;
  options.admission.max_pending_batches = max_pending;
  ShardedEngine engine(options);
  if (!engine.valid()) {
    std::fprintf(stderr, "unknown backend '%s'\n", backend_name.c_str());
    return 1;
  }
  Timer build_timer;
  if (!engine.Build(*graph)) {
    std::fprintf(stderr, "failed to build '%s'\n", backend_name.c_str());
    return 1;
  }
  std::printf("built %u-shard '%s' in %.3f s (threads=%u); churning %zu "
              "rounds x %zu edges (%s updates%s)\n",
              engine.num_shards(), backend_name.c_str(),
              build_timer.ElapsedSeconds(), build_threads, rounds, batch_edges,
              async_updates ? "async" : "sync",
              repair ? ", incremental repair" : "");
  std::vector<Edge> toggles = SampleNewEdges(*graph, batch_edges, 1234);
  if (toggles.empty()) {
    std::fprintf(stderr, "graph too dense to sample absent edges\n");
    return 1;
  }
  std::vector<EdgeUpdate> inserts, removes;
  for (const Edge& e : toggles) {
    inserts.push_back(EdgeUpdate::Insert(e.from, e.to));
    removes.push_back(EdgeUpdate::Remove(e.from, e.to));
  }
  double total_admit_ms = 0, max_admit_ms = 0;
  size_t applied = 0;
  Timer wall;
  for (size_t round = 0; round < rounds; ++round) {
    const std::vector<EdgeUpdate>& batch =
        round % 2 == 0 ? inserts : removes;
    Timer admit;
    applied += engine.ApplyUpdates(batch);
    double ms = admit.ElapsedMillis();
    total_admit_ms += ms;
    max_admit_ms = std::max(max_admit_ms, ms);
  }
  Timer drain_timer;
  engine.Drain();
  std::printf("admission   : mean %.3f ms, max %.3f ms per batch "
              "(%zu net updates applied)\n",
              rounds > 0 ? total_admit_ms / static_cast<double>(rounds) : 0.0,
              max_admit_ms, applied);
  std::printf("drain       : %.3f ms (wall %.3f ms)\n",
              drain_timer.ElapsedMillis(), wall.ElapsedMillis());
  RepairStats repair_stats = engine.RepairStatsTotal();
  if (repair || repair_stats.patches + repair_stats.rebuilds > 0) {
    std::printf("repair      : %llu patched, %llu derived across shards "
                "(%llu hubs repaired, %s rewritten)\n",
                static_cast<unsigned long long>(repair_stats.patches),
                static_cast<unsigned long long>(repair_stats.rebuilds),
                static_cast<unsigned long long>(repair_stats.hubs_repaired),
                HumanBytes(repair_stats.label_bytes).c_str());
  }
  AdmissionStats admission = engine.AdmissionStatsTotal();
  std::printf("admission   : %llu batches shed, %llu blocked, %llu query "
              "timeouts (peak backlog %llu batches%s)\n",
              static_cast<unsigned long long>(admission.shed_batches),
              static_cast<unsigned long long>(admission.blocked_admissions),
              static_cast<unsigned long long>(admission.query_timeouts),
              static_cast<unsigned long long>(admission.peak_pending_batches),
              max_pending > 0 ? ", capped" : "");
  DegradedStats degraded = engine.degraded_stats();
  if (degraded.breaker_transitions > 0 ||
      degraded.breaker_state != CircuitBreaker::State::kClosed) {
    std::printf("breaker     : %s after %llu transitions\n",
                BreakerStateName(degraded.breaker_state),
                static_cast<unsigned long long>(degraded.breaker_transitions));
  }
  GirthInfo info = engine.Girth();
  if (info.girth == kInfDist) {
    std::printf("final girth : acyclic\n");
  } else {
    std::printf("final girth : %u\n", info.girth);
  }
  if (!index_out.empty()) {
    // Match `build`'s on-disk forms: a bare payload for one shard (directly
    // comparable to a from-scratch single-engine build), the multi-shard
    // bundle otherwise.
    std::string payload;
    bool saved = shards > 1 ? engine.SaveTo(payload)
                            : engine.shard(0).SaveTo(payload);
    if (!saved || !SavePayloadToFile(payload, index_out)) {
      std::fprintf(stderr, "cannot persist post-churn index to %s\n",
                   index_out.c_str());
      return 1;
    }
    std::printf("wrote       : %s (post-churn index)\n", index_out.c_str());
  }
  std::printf("churn ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the global --backend/--shards/--mmap/--async-updates flags
  // wherever they appear.
  std::string backend = kDefaultBackendName;
  uint32_t shards = 1;
  bool use_mmap = false;
  bool async_updates = false;
  bool repair = false;
  uint64_t max_pending = 0;
  unsigned build_threads = 0;
  std::vector<char*> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--backend") {
      if (i + 1 >= argc) return Usage();
      backend = argv[++i];
    } else if (arg.rfind("--backend=", 0) == 0) {
      backend = arg.substr(10);
    } else if (arg == "--shards") {
      if (i + 1 >= argc) return Usage();
      shards = static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = static_cast<uint32_t>(
          std::strtoul(arg.c_str() + 9, nullptr, 10));
    } else if (arg == "--build-threads") {
      if (i + 1 >= argc) return Usage();
      build_threads =
          static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg.rfind("--build-threads=", 0) == 0) {
      build_threads =
          static_cast<unsigned>(std::strtoul(arg.c_str() + 16, nullptr, 10));
    } else if (arg == "--mmap") {
      use_mmap = true;
    } else if (arg == "--async-updates") {
      async_updates = true;
    } else if (arg == "--repair") {
      repair = true;
    } else if (arg == "--max-pending") {
      if (i + 1 >= argc) return Usage();
      max_pending = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg.rfind("--max-pending=", 0) == 0) {
      max_pending = std::strtoull(arg.c_str() + 14, nullptr, 10);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (shards == 0) shards = 1;
  int n = static_cast<int>(args.size());
  if (n < 1) return Usage();
  std::string cmd = args[0];
  if (cmd == "backends" && n == 1) return CmdBackends();
  if (cmd == "build" && n == 3) {
    return CmdBuild(backend, shards, build_threads, args[1], args[2]);
  }
  if (cmd == "query" && n >= 3) {
    return CmdQuery(backend, shards, use_mmap, build_threads, args[1],
                    args.data() + 2, n - 2);
  }
  if (cmd == "screen" && n == 4) {
    return CmdScreen(backend, shards, use_mmap, build_threads, args[1],
                     static_cast<Dist>(std::strtoul(args[2], nullptr, 10)),
                     std::strtoul(args[3], nullptr, 10));
  }
  if (cmd == "stats" && n == 2) {
    return CmdStats(backend, shards, use_mmap, build_threads, args[1]);
  }
  if (cmd == "girth" && n == 2) {
    return CmdGirth(backend, shards, use_mmap, build_threads, args[1]);
  }
  if (cmd == "churn" && (n == 4 || n == 5)) {
    return CmdChurn(backend, shards, async_updates, repair, max_pending,
                    build_threads, args[1],
                    std::strtoul(args[2], nullptr, 10),
                    std::strtoul(args[3], nullptr, 10),
                    n == 5 ? args[4] : std::string());
  }
  if (cmd == "graphstats" && n == 2) return CmdGraphStats(args[1]);
  if (cmd == "casestudy" && n == 4) {
    return CmdCaseStudy(args[1],
                        static_cast<Vertex>(std::strtoul(args[2], nullptr, 10)),
                        args[3]);
  }
  return Usage();
}
