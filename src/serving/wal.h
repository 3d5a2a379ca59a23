#ifndef CSC_SERVING_WAL_H_
#define CSC_SERVING_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dynamic/edge_update.h"
#include "graph/digraph.h"

namespace csc {

/// The engine's write-ahead log: admitted update batches are appended and
/// fsync'd as checksummed records *before* the engine acknowledges them, so
/// a crash between acknowledgment and the snapshot swap loses nothing —
/// Engine::RecoverFromFile replays the log and converges to the exact state
/// an uncrashed engine would serve.
///
/// File layout:
///
///   bytes 0..7   magic "CSCWAL01"
///   records      u32 size | u32 CRC-32C of body | body (size bytes)
///
/// Record bodies (all integers little-endian):
///
///   checkpoint   u8 kCheckpoint | u32 num_vertices | u64 num_edges |
///                num_edges x (u32 from, u32 to)
///                — the full retained graph at checkpoint time; always the
///                first record (written by Engine::Build / Checkpoint)
///   batch        u8 kBatch | u64 epoch | u32 count |
///                count x (u8 kind, u32 from, u32 to)
///                — one admitted batch's net-effective ops, admission order
///   rollback     u8 kRollback | u64 first | u64 last
///                — epochs [first, last] were rolled back after their batch
///                records were written (a rebuild failed); replay skips them
///
/// Recovery reads records in order and stops at the first invalid one
/// (short header, short body, or CRC mismatch): a crash mid-append leaves a
/// torn tail, and everything before it is exactly the acknowledged history.
/// A batch whose record is torn was never acknowledged — clients saw no
/// return — so dropping it is correct. A rollback record that cannot be
/// appended makes the engine re-base the log on its rolled-back graph, so
/// recovery does not replay a batch that never served. Only a crash between
/// the failed landing and its rollback record, or before the next Build or
/// Checkpoint once a failed re-base poisoned the handle, replays the batch
/// in flight (at-least-once, never a lost acknowledged one).
///
/// Fault surfaces (util/failpoint.h): wal.open, wal.append (supports
/// short-write and abort — the torn-tail and crash cases), wal.fsync,
/// wal.rollback, wal.checkpoint, wal.finalize (the staged-generation
/// publish rename).

enum class WalRecordType : uint8_t {
  kCheckpoint = 1,
  kBatch = 2,
  kRollback = 3,
};

/// One decoded record. Fields beyond `type` are meaningful per type (see
/// the layout above).
struct WalRecord {
  WalRecordType type = WalRecordType::kBatch;
  /// kBatch: the admitted epoch. kRollback: first rolled-back epoch.
  uint64_t epoch = 0;
  /// kRollback: last rolled-back epoch (inclusive).
  uint64_t epoch_last = 0;
  /// kBatch: the admitted ops.
  std::vector<EdgeUpdate> updates;
  /// kCheckpoint: the base graph.
  Vertex num_vertices = 0;
  std::vector<Edge> edges;
};

/// Append handle over one WAL file. Not internally synchronized — the
/// engine serializes all access under its update lock.
///
/// Both creation paths build the new generation in a side file
/// (`path + ".next"`) and keep appending through the fd opened on that side
/// file; the rename onto `path` is the last step, so no failure — open,
/// write, fsync, or rename — can ever leave the on-disk log ahead of the
/// handle the engine is acknowledging against. CreateFresh renames
/// immediately (the checkpoint-truncation shape); CreateStaged defers the
/// rename to an explicit Finalize(), which is what recovery uses: the
/// crash-time log survives untouched until the replayed generation —
/// checkpoint plus every replayed batch — is complete and durable.
class Wal {
 public:
  /// Atomically replaces `path` with a fresh log holding one checkpoint
  /// record for `graph` and opens it for appending. This is the checkpoint
  /// truncation: every batch record of the previous log generation is
  /// discarded in one atomic rename (the old log stays intact on failure —
  /// any failure, since the rename is the final step). nullptr with
  /// `*error` set (when non-null) on failure.
  static std::unique_ptr<Wal> CreateFresh(const std::string& path,
                                          const DiGraph& graph,
                                          std::string* error = nullptr);

  /// As CreateFresh, but the new generation stays in the side file — the
  /// log at `path` is not replaced — until Finalize(). Appends (and their
  /// fsyncs) land in the side file. A crash or abandonment before Finalize
  /// leaves the previous on-disk log exactly as it was.
  static std::unique_ptr<Wal> CreateStaged(const std::string& path,
                                           const DiGraph& graph,
                                           std::string* error = nullptr);

  /// Publishes a staged generation: renames the side file onto `path` and
  /// fsyncs the directory. Idempotent once it succeeds (and a no-op for a
  /// CreateFresh handle). False with `*error` set on failure — the previous
  /// on-disk log is then still intact and this handle is still staged.
  bool Finalize(std::string* error = nullptr);

  /// True while the handle appends to the unpublished side file.
  bool staged() const { return !staged_path_.empty(); }

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  const std::string& path() const { return path_; }

  /// Appends one batch record and fsyncs. The record is durable when this
  /// returns true — only then may the engine acknowledge the epoch. On
  /// failure the log is truncated back to its last durable size, so a torn
  /// record never sits in front of later successful appends (recovery stops
  /// reading at the first torn record); if even the truncation fails the
  /// handle goes permanently broken and every later append fails fast.
  bool AppendBatch(uint64_t epoch, const std::vector<EdgeUpdate>& updates,
                   std::string* error = nullptr);

  /// Appends a rollback record covering epochs [first, last] and fsyncs.
  bool AppendRollback(uint64_t first, uint64_t last,
                      std::string* error = nullptr);

  /// Fails every later append: the engine poisons a log that can no longer
  /// describe the served state (a rollback record it could not write), so
  /// no further batch is acknowledged against it.
  void Poison() { broken_ = true; }

  /// Reads every valid record of the log at `path`, stopping cleanly at the
  /// first torn/corrupt one (see the recovery contract above). A missing
  /// file yields an empty record list and true. False with `*error` set
  /// (when non-null) only on a foreign file (bad magic) or a read error —
  /// cases where silently treating the log as empty could clobber data that
  /// was never ours.
  static bool ReadAll(const std::string& path, std::vector<WalRecord>* records,
                      std::string* error = nullptr);

 private:
  Wal(std::string path, std::string staged_path, int fd, uint64_t synced_size)
      : path_(std::move(path)),
        staged_path_(std::move(staged_path)),
        fd_(fd),
        synced_size_(synced_size) {}

  static std::unique_ptr<Wal> Create(const std::string& path, bool staged,
                                     const DiGraph& graph, std::string* error);

  bool AppendRecord(const std::string& body, std::string* error);

  std::string path_;
  /// The side file the fd writes to while staged; empty once finalized.
  std::string staged_path_;
  int fd_ = -1;
  /// Bytes known durable (fsync'd) in the log — the truncation target when
  /// an append fails partway.
  uint64_t synced_size_ = 0;
  /// Set when a failed append could not be truncated away (the log has an
  /// unreadable tail) or by Poison(): no further record may be acknowledged
  /// through it.
  bool broken_ = false;
};

}  // namespace csc

#endif  // CSC_SERVING_WAL_H_
