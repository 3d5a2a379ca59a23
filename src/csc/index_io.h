#ifndef CSC_CSC_INDEX_IO_H_
#define CSC_CSC_INDEX_IO_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cycle_index.h"
#include "util/lifetime_annotations.h"

namespace csc {

/// File persistence for CSC indexes, wrapping an index's in-memory
/// serialization in a storage-engine-style envelope:
///
///   bytes 0..7   magic "CSCIDX01"
///   bytes 8..15  payload size (little-endian u64)
///   bytes 16..   payload (a CycleIndex::SaveTo serialization; the payload
///                self-describes its format via its own magic — "CSCI" for
///                the compact interchange form, "CSCF" for the flat arena
///                form)
///   last 4       CRC-32C of the payload (little-endian u32)
///
/// Load verifies the magic, the declared size, and the checksum before
/// parsing, so truncated files, bit flips, and foreign files are rejected
/// with a diagnosable error instead of deserializing garbage labels.

// --- Backend-generic persistence (the CycleIndex interface path). ---

/// Serializes `index` (via SaveTo) into the checksummed envelope at `path`,
/// replacing any existing file *atomically* (temp file + fsync + rename —
/// see util/env.h WriteFileAtomic): a crash mid-save leaves either the old
/// file or the new one, never a torn envelope. False with `*error` set (when
/// non-null, naming the failing path and step) if the backend has no
/// persistent form or on I/O failure.
[[nodiscard]] bool SaveBackendToFile(const CycleIndex& index, const std::string& path,
                                     std::string* error = nullptr);

/// Outcome of LoadBackendFromFile: `index` is set iff `error` is empty.
struct BackendLoadResult {
  std::unique_ptr<CycleIndex> index;
  std::string error;

  bool ok() const { return index != nullptr; }
};

/// Reads and verifies the envelope at `path`, creates backend
/// `backend_name`, and restores it from the payload (LoadFrom). The payload
/// format and the backend must be compatible — every CSC backend loads the
/// compact interchange payload and its own native arena payload.
[[nodiscard]] BackendLoadResult LoadBackendFromFile(const std::string& path,
                                      const std::string& backend_name);

/// Reads and verifies the envelope, returning the raw payload (for callers
/// that route format detection themselves). nullopt with `error` set on any
/// verification failure.
[[nodiscard]] std::optional<std::string> ReadVerifiedPayload(const std::string& path,
                                               std::string* error);

/// Verifies the file envelope over an in-memory buffer (magic, declared
/// size, CRC) and returns the payload span inside it; nullopt with `error`
/// set (when non-null) on any verification failure. ReadVerifiedPayload and
/// the mmap loader below are both built on this.
///
/// `verify_crc = false` checks the structure only (magic + declared size)
/// and skips the payload checksum. That mode exists for exactly one
/// caller: the fault-tolerant sharded load, whose multi-shard payload
/// carries its own per-shard CRCs — the whole-file checksum covers every
/// shard at once, so it cannot pinpoint which shard is rotten. Never serve
/// a payload without *some* checksum over it.
[[nodiscard]] std::optional<std::pair<const uint8_t*, size_t>> VerifyEnvelope(
    const uint8_t* data CSC_LIFETIME_BOUND, size_t size, std::string* error,
    bool verify_crc = true);

// --- Zero-copy loading: serve a frozen index straight from a mapping. ---

/// A read-only mapping of one checksummed index file, verified at open.
/// The envelope (magic, declared size, CRC-32C) is checked over the mapped
/// bytes before any caller sees the payload, exactly like
/// ReadVerifiedPayload — but the payload is never copied: arena-backed
/// backends serve their label runs directly out of the file pages. Open it
/// once and share the handle — any number of engines (e.g. K shard
/// replicas) can view the same mapping, and the pages are paid for once.
///
/// On platforms without mmap (or when mapping fails) the file is read into
/// a heap buffer instead; the zero-copy view API is unchanged, only
/// `mapped()` reports the difference.
///
/// An owner type: every arena view, payload span, and ShardedPayloadView
/// carved out of it dangles once the mapping is destroyed — hold the
/// shared_ptr handle (or thread it through as a keep_alive) instead.
class CSC_OWNER_TYPE IndexFile {
 public:
  /// Maps (or reads) and verifies `path`; nullptr with `error` set (when
  /// non-null) on I/O or verification failure. `verify_crc = false` checks
  /// the envelope structure only — see VerifyEnvelope for the one caller
  /// this mode exists for.
  [[nodiscard]] static std::shared_ptr<IndexFile> Open(const std::string& path,
                                         std::string* error = nullptr,
                                         bool verify_crc = true);
  ~IndexFile();

  IndexFile(const IndexFile&) = delete;
  IndexFile& operator=(const IndexFile&) = delete;

  /// The verified payload (the CycleIndex::SaveTo serialization, or a
  /// multi-shard bundle), inside the mapping.
  const uint8_t* payload() const CSC_LIFETIME_BOUND { return payload_; }
  size_t payload_size() const { return payload_size_; }

  /// True when backed by a real file mapping, false on the heap fallback.
  bool mapped() const { return map_base_ != nullptr; }

 private:
  IndexFile() = default;

  void* map_base_ = nullptr;  // munmap target (nullptr on heap fallback)
  size_t map_size_ = 0;
  std::string heap_;  // fallback storage
  const uint8_t* payload_ = nullptr;
  size_t payload_size_ = 0;
};

/// Creates backend `backend_name` and restores it from `file`'s payload via
/// the zero-copy view path (CycleIndex::LoadView): flat arena backends keep
/// their label payloads in the mapping, which stays alive for as long as
/// the returned index does; other backends copy. The payload must be a
/// single-index serialization (for multi-shard bundles use
/// ShardedEngine::LoadFromFile).
[[nodiscard]] BackendLoadResult LoadBackendFromMapping(const std::shared_ptr<IndexFile>& file,
                                         const std::string& backend_name);

/// Writes an already-serialized payload inside the standard checksummed
/// file envelope, atomically (the counterpart of ReadVerifiedPayload for
/// callers — like the sharded serving tier — that produce payload bytes
/// themselves). False with `*error` set (when non-null) on I/O failure.
[[nodiscard]] bool SavePayloadToFile(const std::string& payload, const std::string& path,
                                     std::string* error = nullptr);

// --- Multi-shard envelope (persistence of the sharded serving tier). ---
//
// A ShardedEngine persists as one payload bundling its K per-shard backend
// payloads:
//
//   bytes 0..7  magic "CSCSHRD2"
//   u32         shard count K
//   u32         partition domain (total vertices across the vertex space)
//   u32         partition flags (bit 0: label-sliced shards; bit 1: saved
//               under a caller-provided ShardFn) — see ShardedBundleInfo
//   K times:    u64 payload size | payload | u32 CRC-32C of the payload
//
// The previous revision ("CSCSHRD1", identical except for the missing
// flags word) still parses — its flags read as all-clear. Each shard
// payload is an ordinary CycleIndex::SaveTo serialization and is
// individually checksummed, so a corrupted shard is pinpointed instead of
// poisoning the whole bundle. The bundle itself is typically wrapped in the
// file envelope above (SavePayloadToFile / ReadVerifiedPayload).

/// Partition properties a bundle records so load time can verify
/// compatibility: a bundle saved from label-sliced shards only answers
/// correctly under the exact partition it was sliced with, so the loader
/// must be able to tell "re-partitioning this would silently lose runs"
/// from "any shard count serves this fine".
struct ShardedBundleInfo {
  /// Shards were sliced to their owned label runs at save time
  /// (ShardedEngineOptions::slice_labels).
  bool sliced = false;
  /// The partition used a caller-provided ShardFn. Functions cannot be
  /// serialized, so only their presence is recorded — enough to reject the
  /// common footgun of reloading a custom-partitioned sliced bundle with
  /// the default partitioner (or vice versa).
  bool custom_shard_fn = false;
};

/// One parsed multi-shard bundle.
struct ShardedPayload {
  std::vector<std::string> shards;
  /// The vertex-space size the partition was computed over.
  Vertex num_vertices = 0;
  ShardedBundleInfo info;
};

/// A parsed multi-shard bundle whose per-shard payloads are spans into the
/// parsed buffer (no copies) — the mmap serving path's view of a bundle.
/// A view type: the parsed buffer (for a mapping, the IndexFile) must
/// outlive it.
struct CSC_VIEW_TYPE ShardedPayloadView {
  std::vector<std::pair<const uint8_t*, size_t>> shards;
  Vertex num_vertices = 0;
  ShardedBundleInfo info;
};

/// Bundles per-shard payloads into the multi-shard envelope.
std::string WrapShardedPayload(const std::vector<std::string>& shard_payloads,
                               Vertex num_vertices,
                               const ShardedBundleInfo& info = {});

/// True if `payload` starts with the multi-shard magic (cheap routing test;
/// does not validate the rest).
[[nodiscard]] bool IsShardedPayload(const std::string& payload);
[[nodiscard]] bool IsShardedPayload(const uint8_t* data, size_t size);

/// Parses and CRC-verifies a multi-shard bundle. nullopt with `error` set
/// (when non-null) on malformed input or a per-shard checksum mismatch.
///
/// Lenient per-shard mode (the degraded-load path): when `shard_errors` is
/// non-null it is resized to the declared shard count, and a shard whose
/// CRC fails no longer fails the parse — its entry comes back empty (size
/// 0) with the reason recorded at its index in `*shard_errors` (entries for
/// healthy shards stay empty strings). Structural corruption of the bundle
/// framing itself (bad magic, truncated size fields, trailing bytes) still
/// fails wholesale — a frame that cannot be walked pinpoints nothing.
[[nodiscard]] std::optional<ShardedPayload> ParseShardedPayload(const std::string& payload,
                                                  std::string* error,
                                                  std::vector<std::string>* shard_errors = nullptr);

/// As ParseShardedPayload, but the shard payloads stay in
/// `[data, data + size)` — the buffer must outlive the returned view (for a
/// mapping, hold the IndexFile). Same lenient mode via `shard_errors`.
[[nodiscard]] std::optional<ShardedPayloadView> ParseShardedPayloadView(
    const uint8_t* data CSC_LIFETIME_BOUND, size_t size, std::string* error,
    std::vector<std::string>* shard_errors = nullptr);

}  // namespace csc

#endif  // CSC_CSC_INDEX_IO_H_
