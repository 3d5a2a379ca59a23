#ifndef CSC_CORE_CYCLE_INDEX_H_
#define CSC_CORE_CYCLE_INDEX_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "util/common.h"
#include "util/lifetime_annotations.h"

namespace csc {

class CscIndex;     // csc/csc_index.h
struct GirthInfo;   // csc/girth.h
struct LabelPatch;  // core/label_patch.h

/// Snapshot of a backend's identity and capabilities, for reporters and the
/// serving tier's dispatch decisions.
struct BackendStats {
  std::string name;
  uint64_t num_vertices = 0;
  /// Label entries resident (0 for index-free backends like "bfs").
  uint64_t label_entries = 0;
  /// Full resident footprint of the index structure.
  uint64_t memory_bytes = 0;
  /// Seconds spent by the last Build/LoadFrom.
  double build_seconds = 0;
  /// Construction workers the last Build used (0 = sequential builder;
  /// loads reset it to 0 — nothing was constructed).
  unsigned build_threads = 0;
  bool supports_save = false;
};

/// The polymorphic backend interface every shortest-cycle-counting engine in
/// this library implements: the CSC index forms (csc, frozen) and the
/// baselines (BFS, HP-SPC). A backend is chosen by name at runtime through
/// MakeBackend, so serving, benches, and the CLI switch engines with a flag
/// instead of a rebuild.
///
/// Threading contract: Build / LoadFrom / LoadView / SliceLabels are
/// single-writer and run before the backend is published. A published
/// backend never mutates: queries (CountShortestCycles, Girth) are const
/// and reentrant, and a write lands as a new instance (a rebuild, or the
/// ApplyLabelPatch clone) that the serving tier swaps in.
class CycleIndex {
 public:
  struct BuildOptions {
    /// Extra isolated vertices appended before indexing, so a later update
    /// batch can attach brand-new vertices without growing the vertex space.
    Vertex reserve_vertices = 0;
    /// Construction workers for labeling-based backends. 0 keeps the
    /// sequential per-hub builder; >= 1 runs the rank-batched parallel
    /// builder, whose output — serialized payloads included — is
    /// bit-identical to the sequential build at any thread count.
    /// The backend without a labeling construction ("bfs") ignores it.
    unsigned num_threads = 0;
  };

  virtual ~CycleIndex() = default;

  /// The registry name this backend was created under ("csc", "frozen", ...).
  virtual const std::string& name() const CSC_LIFETIME_BOUND = 0;

  /// (Re)builds the index from `graph`. Invalidates previous contents.
  virtual void Build(const DiGraph& graph, const BuildOptions& options) = 0;
  void Build(const DiGraph& graph) { Build(graph, BuildOptions()); }

  /// SCCnt(v): number and length of shortest cycles through v. Out-of-range
  /// vertices return {} (no cycle).
  virtual CycleCount CountShortestCycles(Vertex v) const = 0;

  /// Girth of the indexed graph (overall shortest cycle), by a full
  /// per-vertex sweep unless the backend can do better.
  virtual GirthInfo Girth() const;

  /// Serializes the index into `bytes`; false if this backend has no
  /// persistent form. The payload self-describes its format (magic bytes).
  /// The CSC forms "csc" and "frozen" save the native packed arena payload
  /// (each loads the other's). The compact §IV.E payload
  /// (CompactIndex::Serialize) is the interchange format both also load.
  virtual bool SaveTo(std::string& bytes) const;

  /// Restores the index from a SaveTo payload; false on format mismatch or
  /// if this backend cannot be loaded without the graph ("bfs"/"hpspc" need
  /// it for queries — serve their files from a loadable backend).
  virtual bool LoadFrom(const std::string& bytes);

  /// Restores the index from an externally owned payload — typically the
  /// verified body of a read-only file mapping (csc/index_io.h IndexFile) —
  /// retaining `keep_alive` for as long as the index references the buffer.
  /// The flat arena backends serve the mapping zero-copy (label payloads
  /// stay in the file pages, shared across any number of loads); the base
  /// implementation falls back to a copying LoadFrom. `data` is
  /// deliberately not CSC_LIFETIME_BOUND — retaining `keep_alive` makes the
  /// loaded index self-keeping (util/lifetime_annotations.h).
  virtual bool LoadView(const uint8_t* data, size_t size,
                        std::shared_ptr<const void> keep_alive);

  /// Replaces the index with `shadow`'s two stored label sets, encoded
  /// straight into this backend's form (no BFS, no serialized payload): the
  /// repair pipeline's derive. Stats() then report the shadow's construction
  /// plus the encode as the build. False, index unchanged, when this backend
  /// does not serve the CSC labeling.
  virtual bool DeriveFrom(const CscIndex& /*shadow*/) { return false; }

  /// Returns a copy of this index with the patch's run edits applied — the
  /// serving tier's incremental repair: the unpatched instance keeps serving
  /// readers while the clone re-encodes only the touched runs. nullptr when
  /// this backend has no patchable label storage (the caller then falls
  /// back to deriving a full snapshot). Patches are rank-encoded and only
  /// valid against an index built under the same vertex ordering as the
  /// shadow they were extracted from. The clone's Stats() keeps the source's
  /// build figures; the serving tier counts repair work in its own
  /// RepairStats.
  virtual std::unique_ptr<CycleIndex> ApplyLabelPatch(const LabelPatch& patch);

  virtual bool supports_label_patch() const { return false; }

  /// Drops the label runs of vertices not selected by `keep`, shrinking
  /// resident label storage while preserving the vertex space; queries for
  /// dropped vertices then report no cycle. The sharded serving tier uses
  /// this to keep only shard-owned runs (~n/K of the labels per shard).
  /// False when this backend's storage is not per-vertex label runs — the
  /// index is then unchanged and still serves every vertex.
  virtual bool SliceLabels(const std::function<bool(Vertex)>& keep);

  virtual Vertex num_vertices() const = 0;

  /// Full resident footprint in bytes.
  virtual uint64_t MemoryBytes() const = 0;

  virtual BackendStats Stats() const = 0;

  virtual bool supports_save() const { return false; }
};

/// Creates a backend by registry name; nullptr for unknown names. Names:
/// "csc" (the default: the packed arena, which the serving Engine always
/// keeps current by §V repair), "frozen" (the same form, repaired only on
/// request), "bfs" (index-free baseline), "hpspc" (HP-SPC baseline).
std::unique_ptr<CycleIndex> MakeBackend(const std::string& name);

/// All registry names, in the order benches report them.
const std::vector<std::string>& AllBackendNames();

/// True if `name` is a registered backend — a registry lookup only, without
/// constructing a backend (MakeBackend(name) != nullptr iff this).
bool IsRegisteredBackend(const std::string& name);

inline constexpr const char* kDefaultBackendName = "csc";

}  // namespace csc

#endif  // CSC_CORE_CYCLE_INDEX_H_
