#ifndef CSC_CSC_FROZEN_INDEX_H_
#define CSC_CSC_FROZEN_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/label_arena.h"
#include "csc/compact_index.h"
#include "util/lifetime_annotations.h"

namespace csc {

/// A frozen, query-only CSC index: the compact (§IV.E) labeling flattened
/// into two LabelArenas (one per direction) — one allocation per direction,
/// no per-vertex vector headers, cache-linear scans. This is the one serving
/// form of the CSC backends; build/maintain with CscIndex, freeze for the
/// query tier.
///
/// The arenas' encoding is data. kPacked stores each entry as one 64-bit
/// word. kVarint stores LEB128 triples (rank delta, distance, count): the
/// paper accounts 8 bytes per entry (§VI.A), but ranks ascend within a run
/// and distances and counts are small on small-world graphs, so varint runs
/// take typically 3-4 bytes per entry, paid for by decoding in the join.
///
/// Queries are identical in result to CscIndex::Query under either encoding
/// (tests assert equality); they only differ in memory layout.
class FrozenIndex {
 public:
  FrozenIndex() = default;

  /// Builds the index of `graph` under `order`: the construction of
  /// CscIndex::Build(graph, order, options), frozen straight from the
  /// construction's label store. The store's scratch is handed back to the
  /// system first; then, one direction at a time, the arena is sized from
  /// the sets and each owner's sets are copied in, its slab unmapped before
  /// the next owner's. `stats`, if given, receives the build stats.
  static FrozenIndex Build(const DiGraph& graph, const VertexOrdering& order,
                           const CscIndex::Options& options,
                           ArenaEncoding encoding = ArenaEncoding::kPacked,
                           LabelBuildStats* stats = nullptr);

  /// Flattens a compact index (a loaded "CSCI" payload) into arenas of the
  /// given encoding; the copy holds both.
  static FrozenIndex FromCompact(
      const CompactIndex& compact,
      ArenaEncoding encoding = ArenaEncoding::kPacked);

  /// Encodes the two label sets a CSC index stores straight into arenas,
  /// with no CompactIndex copy: the same index FromCompact makes of
  /// CompactIndex::FromIndex(index).
  static FrozenIndex FromIndex(
      const CscIndex& index, ArenaEncoding encoding = ArenaEncoding::kPacked);

  /// SCCnt(v): joins L_out(v_o) with L_in(v_i) and maps the bipartite
  /// distance d to a cycle length (d + 1) / 2.
  CycleCount Query(Vertex v) const;

  /// Shortest cycles through the edge (u, v) — identical answers to
  /// CscIndex::QueryThroughEdge (see there for semantics, including the
  /// couple-skipping correction).
  CycleCount QueryThroughEdge(Vertex u, Vertex v) const;

  ArenaEncoding encoding() const { return in_.encoding(); }
  Vertex num_original_vertices() const { return in_.num_vertices(); }
  uint64_t TotalEntries() const {
    return in_.total_entries() + out_.total_entries();
  }
  /// Payload bytes (entries only; offsets excluded, matching how the paper
  /// accounts index size as 8 bytes per entry).
  uint64_t SizeBytes() const { return in_.SizeBytes() + out_.SizeBytes(); }
  /// Mean encoded bytes per label entry (8.0 when packed).
  double BytesPerEntry() const {
    uint64_t entries = TotalEntries();
    return entries == 0 ? 0.0
                        : static_cast<double>(SizeBytes()) /
                              static_cast<double>(entries);
  }
  /// Full resident footprint including offsets and the couple-rank map.
  uint64_t MemoryBytes() const {
    return in_.MemoryBytes() + out_.MemoryBytes() +
           in_vertex_rank_.size() * sizeof(Rank);
  }

  /// The underlying arenas (L_in(v_i) / L_out(v_o) runs by original vertex).
  const LabelArena& in_arena() const CSC_LIFETIME_BOUND { return in_; }
  const LabelArena& out_arena() const CSC_LIFETIME_BOUND { return out_; }

  /// Binary serialization: 4-byte magic ("CSCF" packed, "CSCZ" varint) |
  /// in arena | out arena | couple-rank map (fixed-width fields
  /// native-endian, matching the CompactIndex wire format).
  std::string Serialize() const;
  /// Parses either magic; nullopt on malformed input or when an arena's
  /// encoding disagrees with the magic.
  static std::optional<FrozenIndex> Deserialize(const std::string& bytes);

  /// As Deserialize, but zero-copy over an externally owned buffer (a
  /// verified file mapping): the label payloads stay in `[data, data+size)`,
  /// kept alive by `keep_alive`; only offsets and the couple-rank map are
  /// materialized. `data` is deliberately not CSC_LIFETIME_BOUND — the
  /// keep-alive handle makes the result self-keeping.
  static std::optional<FrozenIndex> FromView(
      const uint8_t* data, size_t size,
      std::shared_ptr<const void> keep_alive);

  /// Drops the runs of vertices not selected by `keep` from both arenas
  /// (queries for them then report no cycle), keeping the vertex space —
  /// the shard-local storage form of the sharded serving tier.
  void SliceTo(const std::function<bool(Vertex)>& keep);

  /// Returns a copy with the named in/out runs replaced (incremental label
  /// repair; see core/label_patch.h). Run contents are rank-encoded, so this
  /// is only meaningful under the ordering the index was built with — the
  /// couple-rank map is carried over unchanged.
  FrozenIndex WithEditedRuns(
      const std::vector<std::pair<Vertex, LabelSet>>& in_edits,
      const std::vector<std::pair<Vertex, LabelSet>>& out_edits) const {
    FrozenIndex edited;
    edited.in_ = in_.WithEditedRuns(in_edits);
    edited.out_ = out_.WithEditedRuns(out_edits);
    edited.in_vertex_rank_ = in_vertex_rank_;
    return edited;
  }

  friend bool operator==(const FrozenIndex&, const FrozenIndex&) = default;

 private:
  // The rank of v_i for every original vertex v, read off G_b's rank
  // permutation.
  static std::vector<Rank> InVertexRanks(
      const std::vector<Vertex>& rank_to_vertex);

  // Shared by Deserialize (view = false: the arenas copy their payload) and
  // FromView.
  static std::optional<FrozenIndex> Parse(
      const uint8_t* data, size_t size, bool view,
      std::shared_ptr<const void> keep_alive);

  LabelArena in_;   // L_in(v_i), indexed by original vertex
  LabelArena out_;  // L_out(v_o), indexed by original vertex
  // in_vertex_rank_[v] = rank of v_i, for QueryThroughEdge's couple-hub
  // correction.
  std::vector<Rank> in_vertex_rank_;
};

}  // namespace csc

#endif  // CSC_CSC_FROZEN_INDEX_H_
