// The CycleIndex backend adapters and registry: every concrete shortest-cycle
// engine in the library, reachable by name. Adapters own their engine (and,
// when queries need it, a copy of the graph) so a backend can be built,
// queried, and persisted through the interface alone.
#include <algorithm>
#include <optional>
#include <utility>

#include "baseline/bfs_cycle.h"
#include "core/cycle_index.h"
#include "core/label_patch.h"
#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "csc/frozen_index.h"
#include "graph/ordering.h"
#include "hpspc/hpspc_index.h"
#include "util/timer.h"

namespace csc {

namespace {

// Shared name/stats plumbing for every adapter.
class BackendBase : public CycleIndex {
 public:
  explicit BackendBase(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }

  BackendStats Stats() const override {
    BackendStats stats;
    stats.name = name_;
    stats.num_vertices = num_vertices();
    stats.label_entries = LabelEntries();
    stats.memory_bytes = MemoryBytes();
    stats.build_seconds = build_seconds_;
    stats.build_threads = build_threads_;
    stats.supports_save = supports_save();
    return stats;
  }

 protected:
  virtual uint64_t LabelEntries() const { return 0; }

  // Rough adjacency footprint of a DiGraph (both directions materialized).
  static uint64_t GraphBytes(const DiGraph& graph) {
    return 2 * graph.num_edges() * sizeof(Vertex) +
           2ull * graph.num_vertices() * sizeof(std::vector<Vertex>);
  }

  std::string name_;
  double build_seconds_ = 0;
  unsigned build_threads_ = 0;
};

// The CSC serving form of "csc" and "frozen": the §IV.E reduction (L_in(v_i)
// and L_out(v_o)) in a FrozenIndex's packed arenas.
// A build constructs only the two served label sets, over a ranked copy of
// the graph, never G_b, and freezes them straight from the construction
// label store (FrozenIndex::Build): one direction at a time, each owner's
// runs are copied into the arena and that owner's slab unmapped. The build
// peaks at the end of construction or while the in-arena fills beside both
// stores: 37-38 MB of process RSS at WKT@0.5 and 4 threads, against 52 MB
// when construction grew malloc'd label sets and the freeze copied them.
class FlatBackend : public BackendBase {
 public:
  explicit FlatBackend(std::string name) : BackendBase(std::move(name)) {}

  void Build(const DiGraph& graph, const BuildOptions& options) override {
    Timer timer;
    CscIndex::Options o;
    o.reserve_vertices = options.reserve_vertices;
    o.build_threads = options.num_threads;
    index_ = FrozenIndex::Build(graph, DegreeOrdering(graph), o);
    build_seconds_ = timer.ElapsedSeconds();
    build_threads_ = options.num_threads;
  }

  CycleCount CountShortestCycles(Vertex v) const override {
    return index_.Query(v);
  }

  bool SaveTo(std::string& bytes) const override {
    bytes = index_.Serialize();
    return true;
  }

  bool LoadFrom(const std::string& bytes) override {
    Timer timer;
    // Native flat payload first, then the compact interchange format.
    if (auto native = FrozenIndex::Deserialize(bytes)) {
      return Adopt(std::move(*native), timer);
    }
    if (auto compact = CompactIndex::Deserialize(bytes)) {
      return Adopt(FrozenIndex::FromCompact(*compact), timer);
    }
    return false;
  }

  bool LoadView(const uint8_t* data, size_t size,
                std::shared_ptr<const void> keep_alive) override {
    Timer timer;
    // Native payloads serve zero-copy straight from the mapping; anything
    // else (the compact interchange format) takes the copying path.
    if (auto native = FrozenIndex::FromView(data, size, std::move(keep_alive))) {
      return Adopt(std::move(*native), timer);
    }
    return CycleIndex::LoadView(data, size, nullptr);
  }

  bool DeriveFrom(const CscIndex& shadow) override {
    Timer timer;
    index_ = FrozenIndex::FromIndex(shadow);
    build_seconds_ = shadow.build_stats().seconds + timer.ElapsedSeconds();
    build_threads_ = shadow.build_stats().build_threads;
    return true;
  }

  bool SliceLabels(const std::function<bool(Vertex)>& keep) override {
    index_.SliceTo(keep);
    return true;
  }

  // Bounded repair: clone with only the patched runs rewritten
  // (LabelArena::WithEditedRuns); a view-backed index materializes into an
  // owned payload, so the mapping can be released after a patch lands.
  std::unique_ptr<CycleIndex> ApplyLabelPatch(
      const LabelPatch& patch) override {
    if (patch.num_vertices != 0 &&
        patch.num_vertices != index_.num_original_vertices()) {
      return nullptr;
    }
    auto clone = std::make_unique<FlatBackend>(name_);
    clone->index_ = index_.WithEditedRuns(patch.in_runs, patch.out_runs);
    clone->build_seconds_ = build_seconds_;
    clone->build_threads_ = build_threads_;
    return clone;
  }

  bool supports_label_patch() const override { return true; }

  Vertex num_vertices() const override {
    return index_.num_original_vertices();
  }

  uint64_t MemoryBytes() const override { return index_.MemoryBytes(); }

  bool supports_save() const override { return true; }

 protected:
  uint64_t LabelEntries() const override { return index_.TotalEntries(); }

 private:
  bool Adopt(FrozenIndex loaded, const Timer& timer) {
    index_ = std::move(loaded);
    build_seconds_ = timer.ElapsedSeconds();
    build_threads_ = 0;
    return true;
  }

  FrozenIndex index_;
};

// "bfs": the index-free Algorithm 1 baseline. A rebuild is a graph copy;
// queries cost O(n + m) over the calling thread's own scratch
// (BfsCountCycles).
class BfsBackend : public BackendBase {
 public:
  BfsBackend() : BackendBase("bfs") {}

  void Build(const DiGraph& graph, const BuildOptions& options) override {
    graph_ = graph;
    if (options.reserve_vertices > 0) {
      graph_->AddVertices(options.reserve_vertices);
    }
    build_seconds_ = 0;
  }

  CycleCount CountShortestCycles(Vertex v) const override {
    if (!graph_ || v >= graph_->num_vertices()) return {};
    return BfsCountCycles(*graph_, v);
  }

  Vertex num_vertices() const override {
    return graph_ ? graph_->num_vertices() : 0;
  }

  uint64_t MemoryBytes() const override {
    return graph_ ? GraphBytes(*graph_) : 0;
  }

 private:
  std::optional<DiGraph> graph_;
};

// "hpspc": the HP-SPC competitor labeling over the original graph, SCCnt by
// neighborhood reduction.
class HpSpcBackend : public BackendBase {
 public:
  HpSpcBackend() : BackendBase("hpspc") {}

  void Build(const DiGraph& graph, const BuildOptions& options) override {
    Timer timer;
    graph_ = graph;
    if (options.reserve_vertices > 0) graph_.AddVertices(options.reserve_vertices);
    // HpSpcIndex keeps a pointer to the graph; graph_ outlives it here.
    index_.emplace(
        HpSpcIndex::Build(graph_, DegreeOrdering(graph_), options.num_threads));
    build_seconds_ = timer.ElapsedSeconds();
    build_threads_ = options.num_threads;
  }

  CycleCount CountShortestCycles(Vertex v) const override {
    if (!index_ || v >= graph_.num_vertices()) return {};
    return index_->CountCycles(v);
  }

  Vertex num_vertices() const override { return graph_.num_vertices(); }

  uint64_t MemoryBytes() const override {
    return (index_ ? index_->labeling().SizeBytes() : 0) + GraphBytes(graph_);
  }


 protected:
  uint64_t LabelEntries() const override {
    return index_ ? index_->labeling().TotalEntries() : 0;
  }

 private:
  DiGraph graph_;
  std::optional<HpSpcIndex> index_;
};

}  // namespace

std::unique_ptr<CycleIndex> MakeBackend(const std::string& name) {
  if (name == "csc" || name == "frozen") {
    return std::make_unique<FlatBackend>(name);
  }
  if (name == "bfs") return std::make_unique<BfsBackend>();
  if (name == "hpspc") return std::make_unique<HpSpcBackend>();
  return nullptr;
}

const std::vector<std::string>& AllBackendNames() {
  static const std::vector<std::string> kNames = {
      "csc", "frozen", "bfs", "hpspc"};
  return kNames;
}

bool IsRegisteredBackend(const std::string& name) {
  const std::vector<std::string>& names = AllBackendNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace csc
