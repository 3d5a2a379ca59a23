#ifndef CSC_CORE_LABEL_ARENA_H_
#define CSC_CORE_LABEL_ARENA_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "labeling/label_set.h"
#include "util/common.h"
#include "util/label_entry.h"
#include "util/lifetime_annotations.h"
#include "util/page_allocator.h"

namespace csc {

/// A flat, read-only label store: the label sets of all vertices laid out in
/// one arena with CSR-style offsets. This is the shared storage layer under
/// every flat serving-tier index form; building one is a single pass over
/// per-vertex LabelSets, and querying is a merge of two runs.
///
/// Each entry is one packed 64-bit LabelEntry word — the 8 bytes per entry
/// the paper accounts (§VI.A) — and entries within a run are sorted by hub
/// rank (inherited from LabelSet's invariant), which the merge join and the
/// galloping skip path rely on.
///
/// Storage is accessed through a payload view that points either at vectors
/// the arena owns (Build / Parse) or at an externally owned buffer — e.g. a
/// read-only file mapping (ParseView). View-backed arenas keep the mapping
/// alive through a shared handle, so copies and the engines serving them
/// stay valid for as long as any of them exists. The external buffer has no
/// alignment guarantee, so entries are always decoded through
/// unaligned 8-byte loads (LoadPackedEntry); compilers lower these to single
/// mov/ldur instructions.
class LabelArena {
 public:
  LabelArena() = default;

  /// Flattens a materialized vector of label sets.
  static LabelArena FromLabelSets(const std::vector<LabelSet>& sets);

  /// An arena whose run v is sized for `run_of(v)`, v in [0, num_vertices),
  /// and left for PlaceRun to write, in any vertex order: a build's label
  /// store hands its runs over owner by owner (FrozenIndex::Build). A
  /// payload of a page or more is mapped untouched, so what is resident is
  /// what PlaceRun has written.
  static LabelArena Sized(
      Vertex num_vertices,
      const std::function<std::span<const LabelEntry>(Vertex)>& run_of);
  /// Writes run v of a Sized arena: the run Sized saw for v. Until every
  /// run is placed the payload holds unwritten bytes.
  void PlaceRun(Vertex v, std::span<const LabelEntry> run);

  Vertex num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<Vertex>(offsets_.size() - 1);
  }
  uint64_t total_entries() const {
    return offsets_.empty() ? 0 : offsets_.back();
  }
  uint64_t RunSize(Vertex v) const { return offsets_[v + 1] - offsets_[v]; }
  /// True when the payload lives in an externally owned buffer (ParseView).
  bool is_view() const { return view_payload_ != nullptr; }

  /// The raw payload: packed entry words, wherever they live. Never null
  /// for a built arena; may be unaligned when viewing a mapping.
  const uint8_t* payload_data() const CSC_LIFETIME_BOUND {
    return view_payload_ != nullptr ? view_payload_ : payload_.data();
  }

  /// Decodes the packed entry word at `p` (unaligned-safe).
  static LabelEntry LoadPackedEntry(const uint8_t* p) {
    uint64_t bits;
    std::memcpy(&bits, p, sizeof(bits));
    return LabelEntry::FromBits(bits);
  }

  /// Start of run `v`'s payload, 8 bytes per entry (decode through
  /// LoadPackedEntry or RunCursor).
  const uint8_t* PackedRunBegin(Vertex v) const CSC_LIFETIME_BOUND {
    return payload_data() + offsets_[v] * sizeof(LabelEntry);
  }

  /// A decoding cursor over one vertex's run.
  /// Usage: `for (Cursor c = arena.RunCursor(v); c.Next();) use(c.rank()...)`.
  /// A view type: it reads the arena's payload in place, so the arena (and,
  /// for a view-backed arena, its mapping) must outlive the cursor.
  class CSC_VIEW_TYPE Cursor {
   public:
    bool Next();
    Rank rank() const { return rank_; }
    Dist dist() const { return dist_; }
    Count count() const { return count_; }

   private:
    friend class LabelArena;
    // Byte pointers with 8-byte stride (the payload may live in an
    // unaligned mapping).
    const uint8_t* p_ = nullptr;
    const uint8_t* end_ = nullptr;
    Rank rank_ = 0;
    Dist dist_ = 0;
    Count count_ = 0;
  };
  Cursor RunCursor(Vertex v) const CSC_LIFETIME_BOUND;

  /// Decodes run `v` back into a LabelSet (round-trip testing, expansion).
  LabelSet DecodeRun(Vertex v) const;

  /// 2-hop join: min over common hubs of dist(s->h) + dist(h->t) with the
  /// multiplicity at the minimum, between run `s` of `out_arena` and run `t`
  /// of `in_arena`. The kernel is picked by run-length skew: near-balanced
  /// runs take a block intersection that compares four ranks of each run
  /// all-pairs per step with SIMD (densely interleaved runs make a linear
  /// merge mispredict on nearly every advance; under CSC_NO_SIMD they take
  /// the linear merge), moderately skewed runs a merge whose advances skip
  /// four ranks at a time with SIMD compares, and badly skewed runs gallop
  /// (exponential probe + binary search) over the long side. Every kernel
  /// returns the same result.
  static JoinResult Join(const LabelArena& out_arena, Vertex s,
                         const LabelArena& in_arena, Vertex t);

  /// The reference linear merge over the same runs — the pre-optimization
  /// kernel, kept as the conformance oracle and the microbenchmark baseline.
  static JoinResult JoinLinear(const LabelArena& out_arena, Vertex s,
                               const LabelArena& in_arena, Vertex t);

  /// Kernel-dispatch cutoffs, chosen by bench_micro_kernels' ArenaJoin skew
  /// matrix against the linear merge (see README "Join kernels"): the
  /// SIMD-skip merge pays off once the longer run is ~8x the shorter, and
  /// galloping from ~32x. Runs below kGallopMinLongerRun entries never skip
  /// or gallop — the setup costs more than it saves. Sending 8-32x runs to
  /// the block intersection instead measured no faster on a real sweep.
  static constexpr size_t kSimdSkewRatio = 8;
  static constexpr size_t kGallopSkewRatio = 32;
  static constexpr size_t kGallopMinLongerRun = 64;

  /// Locates hub `hub_rank` in run `v` by binary search: (dist, count) or
  /// nullopt.
  std::optional<std::pair<Dist, Count>> FindHub(Vertex v, Rank hub_rank) const;

  /// Rebuilds the arena so only the runs selected by `keep` remain; every
  /// other run becomes empty while the vertex space stays [0, n). The
  /// result always owns its payload (slicing a view materializes just the
  /// kept runs). The sharded serving tier uses this to cut each shard's
  /// resident labels to its owned vertices.
  void Slice(const std::function<bool(Vertex)>& keep);

  /// Returns a copy of this arena with the runs named in `edits` replaced by
  /// the given label sets; every other run is copied byte-identically.
  /// `edits` must be sorted by vertex with no duplicates. An edited arena is
  /// byte-identical to one built from scratch over the same label sets. The
  /// result always owns its payload. This is the storage primitive under
  /// CycleIndex::ApplyLabelPatch (serving-tier incremental repair).
  LabelArena WithEditedRuns(
      const std::vector<std::pair<Vertex, LabelSet>>& edits) const;

  /// Payload bytes only — 8 per entry (the paper's Figure 9(b) accounting).
  uint64_t SizeBytes() const { return total_entries() * sizeof(LabelEntry); }
  /// Payload plus offsets: the true resident footprint. A view-backed
  /// arena's payload is file-backed and shared across every arena viewing
  /// the same mapping, but is still counted here (it occupies page cache
  /// once resident); OwnedBytes excludes it.
  uint64_t MemoryBytes() const {
    return SizeBytes() + offsets_.size() * sizeof(uint64_t);
  }
  /// Heap bytes this arena owns itself (offsets always; payload unless the
  /// arena views an external mapping).
  uint64_t OwnedBytes() const {
    return offsets_.size() * sizeof(uint64_t) + (is_view() ? 0 : SizeBytes());
  }

  /// Binary serialization, appended to `out`:
  ///   u8 encoding (always 0, the packed entry words) | u32 num_vertices |
  ///   per-vertex LEB128 varint run length in entries | payload.
  /// Fixed-width fields are native-endian (little-endian on every platform
  /// this library targets; matches the CompactIndex wire format).
  void AppendTo(std::string& out) const;
  /// Parses one serialized arena from `bytes` starting at `pos`, advancing
  /// `pos` past it; the result owns its payload. nullopt on malformed input
  /// (pos then unspecified), including an encoding byte other than 0 (the
  /// retired varint payload, 1).
  static std::optional<LabelArena> Parse(const std::string& bytes, size_t& pos);
  static std::optional<LabelArena> Parse(const uint8_t* data, size_t size,
                                         size_t& pos);

  /// As Parse, but the payload stays in `[data, data + size)` and the arena
  /// only records a view into it — the zero-copy load path for read-only
  /// file mappings. Validation is identical to Parse (encoding byte, run
  /// lengths, payload bounds), so a truncated or corrupt mapping is rejected
  /// the same way. `keep_alive` is retained for the life of the arena and
  /// every copy of it; pass the mapping handle. `data` is deliberately not
  /// CSC_LIFETIME_BOUND: the keep-alive handle makes the result
  /// self-keeping (contract rule — see util/lifetime_annotations.h).
  static std::optional<LabelArena> ParseView(
      const uint8_t* data, size_t size, size_t& pos,
      std::shared_ptr<const void> keep_alive);

  /// Logical equality: run boundaries and payload bytes — where the payload
  /// lives (owned or viewed) does not matter.
  friend bool operator==(const LabelArena& a, const LabelArena& b) {
    if (a.offsets_ != b.offsets_) return false;
    uint64_t size = a.SizeBytes();
    return size == 0 ||
           std::memcmp(a.payload_data(), b.payload_data(), size) == 0;
  }

 private:
  static std::optional<LabelArena> ParseImpl(
      const uint8_t* data, size_t size, size_t& pos, bool view,
      std::shared_ptr<const void> keep_alive);

  // offsets_[v] .. offsets_[v+1]: entry indexes into the payload. Size n+1
  // once built, empty before. Always materialized (owned) — the wire format
  // stores run lengths, so a view load reconstructs these in one pass.
  std::vector<uint64_t> offsets_;
  // The owned payload: packed entry words. On mapped pages from a page up,
  // so a freed arena returns them to the system whatever malloc's
  // thresholds have become. Sizing it writes nothing: every path that
  // sizes it writes each run (PlaceRun or a copy) before it is read.
  std::vector<uint8_t, DefaultInitPageAllocator<uint8_t>> payload_;
  // When non-null, the payload lives in an external buffer (file mapping)
  // and payload_ stays empty; external_ keeps the buffer alive.
  const uint8_t* view_payload_ = nullptr;
  std::shared_ptr<const void> external_;
};

}  // namespace csc

#endif  // CSC_CORE_LABEL_ARENA_H_
