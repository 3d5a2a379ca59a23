#ifndef CSC_SERVING_ENGINE_H_
#define CSC_SERVING_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cycle_index.h"
#include "csc/girth.h"
#include "dynamic/edge_update.h"
#include "dynamic/update_stats.h"
#include "graph/digraph.h"
#include "graph/ordering.h"
#include "serving/admission.h"
#include "util/lifetime_annotations.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace csc {

class CscIndex;  // csc/csc_index.h
class Wal;       // serving/wal.h

/// Incremental label repair, the alternative to rebuild-and-swap. When active,
/// Build constructs a *shadow* CscIndex under a pinned vertex ordering and
/// derives the serving snapshot from it; the engine's one lander then applies
/// each update batch to the shadow with the paper's §V maintenance (minimality
/// mode, so decremental repair stays valid across batches) and lands it on the
/// snapshot as a run-level patch (CycleIndex::ApplyLabelPatch) — or, when the
/// batch's net change reaches kDefaultRebuildThreshold of the edges (the
/// shadow is then rebuilt) or the snapshot cannot be patched, derives a full
/// snapshot from the shadow (no BFS). The shadow belongs to the lander:
/// maintenance and patching run off the admission lock, so writers keep
/// admitting while a batch lands. Pinning the ordering keeps label ranks
/// stable across patches, which is also what makes the repaired index
/// bit-identical to a from-scratch sequential build under the same ordering
/// (the conformance oracle).
struct RepairOptions {
  /// Off by default: "frozen" then lands by rebuild-and-swap.
  /// "csc" repairs whether or not this is set; "bfs" and "hpspc" have no
  /// patchable labels and always rebuild.
  bool enabled = false;
};

/// Repair-vs-rebuild decision counters (EngineOptions::repair). `patches`
/// and `rebuilds` count landed batches by how they landed; hubs/bytes
/// accumulate the runs rewritten and replacement label bytes written by the
/// patched ones. The write-side overload counters live in AdmissionStats.
struct RepairStats {
  uint64_t patches = 0;
  uint64_t rebuilds = 0;
  uint64_t hubs_repaired = 0;
  uint64_t label_bytes = 0;

  void Accumulate(const RepairStats& other) {
    patches += other.patches;
    rebuilds += other.rebuilds;
    hubs_repaired += other.hubs_repaired;
    label_bytes += other.label_bytes;
  }
};

struct EngineOptions {
  /// Registry name of the backend to serve ("csc", "frozen", ...).
  std::string backend = kDefaultBackendName;
  /// Worker threads for batched queries; 0 = ThreadPool::DefaultThreadCount().
  unsigned num_threads = 0;
  /// Vertices per parallel batch chunk.
  size_t batch_grain = 256;
  /// Extra isolated vertices appended by Build (CycleIndex::BuildOptions::
  /// reserve_vertices), so later update batches can attach brand-new
  /// vertices without growing the vertex space.
  Vertex reserve_vertices = 0;
  /// Construction workers for Build, the repair shadow, and the
  /// rebuild-and-swap path (synchronous and async alike): nonzero runs the
  /// rank-batched parallel builder, 0 keeps the sequential one. Output is
  /// bit-identical either way.
  unsigned build_threads = 0;
  /// When set, label storage is sliced to the selected vertices after every
  /// successful Build / rebuild / load (CycleIndex::SliceLabels): queries
  /// for unselected vertices then report no cycle. The sharded tier sets
  /// this to each shard's ownership predicate so a shard holds only ~n/K
  /// labels. Backends that cannot slice serve unsliced — still correct,
  /// just unshrunk.
  std::function<bool(Vertex)> slice_keep;
  /// Land batches off the writer thread: ApplyUpdates validates the batch,
  /// mutates the retained graph, logs it, and returns with an epoch token;
  /// the engine's lander then runs on a background worker instead of
  /// inline on the caller, coalescing batches that arrive mid-landing into
  /// the next landing. Use WaitForEpoch / Drain for read-your-writes.
  bool async_updates = false;
  /// Incremental label repair (sync and async): see RepairOptions. Ignored
  /// by backends without patchable label storage.
  RepairOptions repair;
  /// Write-side backpressure (serving/admission.h): caps the async update
  /// backlog by pending batches / pending ops. A batch over the cap is shed
  /// with UpdateVerdict::kOverloaded, or blocks up to the caller's deadline
  /// when admission.block_on_full is set. Defaults (all zero) preserve the
  /// historical unbounded-backlog behavior. Synchronous engines are never
  /// capped (their backlog is always empty).
  AdmissionOptions admission;
  /// When non-empty, Build opens a write-ahead log at this path (see
  /// serving/wal.h): every admitted batch is appended + fsync'd before it
  /// is acknowledged, Checkpoint() snapshots + truncates it, and
  /// RecoverFromFile() replays it after a crash — acknowledged epochs
  /// survive with the same answers as an uncrashed engine (the bytes can
  /// differ after a Checkpoint; see RecoverFromFile). Every backend logs the
  /// same records: each admitted batch's net ops. LoadFrom / LoadFromFile /
  /// LoadView disable the WAL (no retained graph to checkpoint); recovery
  /// and Build re-enable it.
  std::string wal_path;
};

/// Per-update outcome of Engine::ApplyUpdates. [[nodiscard]]: a dropped
/// verdict silently loses a rejection or rollback report.
enum class [[nodiscard]] UpdateVerdict : uint8_t {
  /// Not applied: out-of-range endpoint, self-loop, a present/absent no-op,
  /// an update whose effect was cancelled by another update on the same
  /// edge inside the batch, or a batch rolled back by a failed rebuild.
  kRejected = 0,
  /// The net effect of the batch on this update's edge — exactly one update
  /// per net-changed edge is marked applied. Under async_updates the
  /// verdict is provisional until WaitForEpoch(epoch) returns true (a
  /// failed rebuild rolls the batch back and reports false there).
  kApplied,
  /// An engine with no retained graph: it was restored via LoadFrom /
  /// LoadFromFile / LoadView, which keeps no graph to rebuild from, so updates
  /// cannot apply until Build is called. Distinct from kRejected so callers can
  /// tell "invalid update" from "engine cannot update at all right now".
  kNoGraph,
  /// Shed by admission control: the async backlog was at its configured cap
  /// (EngineOptions::admission) — or the engine was draining — and the
  /// batch was refused before anything was examined or mutated. Uniform
  /// across the batch (a shed batch gets no per-update analysis). Retry
  /// after backing off, or use admission.block_on_full with a deadline.
  kOverloaded,
};

/// Outcome of the deadline overloads of Engine::WaitForEpoch /
/// ShardedEngine::WaitForEpochs. [[nodiscard]] for the same reason as
/// UpdateVerdict: dropping it silently loses a rollback or timeout report.
enum class [[nodiscard]] WaitStatus : uint8_t {
  /// The epoch resolved and its batch is visible to queries.
  kLanded = 0,
  /// The epoch resolved by rolling back (failed rebuild): the snapshot
  /// still answers for the pre-batch state.
  kRolledBack,
  /// The deadline expired first — the epoch is still in flight (e.g. the
  /// async worker is wedged behind a slow rebuild). The batch may yet land
  /// or roll back; wait again or consult resolved_epoch().
  kTimeout,
};

/// Outcome of a deadline'd single query (Engine::Query(v, QueryOptions)).
/// On kTimeout the count is the zero value — the budget expired before the
/// lookup ran.
struct QueryResult {
  CycleCount count;
  QueryStatus status = QueryStatus::kOk;
};

/// Outcome of a deadline'd batched query. The scan proceeds in chunks,
/// checking the budget between chunks; on kTimeout `counts` holds the
/// answers computed so far and `answered[i]` says which positions are
/// valid (`completed` counts them). A full answer has status kOk and
/// completed == counts.size(). The sharded tier can also report kShed:
/// degraded-shard positions refused by the fallback breaker/gate stay
/// unanswered while the scan continues.
struct BatchQueryResult {
  std::vector<CycleCount> counts;
  std::vector<char> answered;  ///< positionally aligned validity mask
  size_t completed = 0;        ///< number of answered positions
  QueryStatus status = QueryStatus::kOk;
};

/// Outcome of a deadline'd girth scan: the exact girth over the `scanned`
/// vertices answered before the budget ran out. kOk means the whole vertex
/// space was scanned and `info` equals the budget-free Girth().
struct GirthResult {
  GirthInfo info;
  Vertex scanned = 0;
  QueryStatus status = QueryStatus::kOk;
};

/// The serving facade: owns one CycleIndex backend chosen by name, fans
/// batched queries out across a thread pool, and keeps updates and readers
/// consistent through warm snapshot swaps.
///
/// Concurrency model: one striped reader lock, query_mu_ (util/mutex.h
/// SharedMutex), guards the active snapshot pointer. Backend queries are const
/// and reentrant (CycleIndex's threading contract), so every reader takes only
/// the read side: a point query reads the pointer and runs inside the read
/// section, with no shared_ptr copy, so readers share no written cache line.
/// The writer side covers only the pointer swap and the FinishDrain quiesce —
/// so a query never observes a half-applied swap. Batched queries pin the
/// snapshot's shared_ptr, which keeps it alive after a swap retires it; a
/// published snapshot never changes, so its scan runs with the read section
/// already released and a swap never waits for a sweep. Update entry points
/// (Build / ApplyUpdates / LoadFrom) are single-writer — serialize them
/// externally. (With async_updates the engine's own lander worker is internal
/// to that contract: it serializes itself against the writer entry points;
/// WaitForEpoch / Drain may be called from any thread.) No query entry point
/// may be called while the caller already holds a read section of the same
/// engine: with a writer pending, the nested acquire would deadlock (hence
/// CSC_EXCLUDES(query_mu_)).
///
/// Updates: on every backend a write is *admit, then land*. Admission only
/// queues: under update_mu_ it mutates the retained graph, computes the
/// verdicts, appends the batch to the WAL, and pushes it onto the backlog. One
/// lander then takes every admitted epoch, builds the next snapshot with
/// update_mu_ released — a repair pass over the shadow or a fresh rebuild off
/// to the side — swaps it in atomically (the warm snapshot swap), and
/// commits; a failed landing goes through the one rollback routine. A
/// synchronous write runs the lander inline on the caller's thread; with
/// async_updates it runs on a background worker and the writer returns with an
/// epoch token. Readers are never blocked by a landing, and admissions only
/// wait for its short commit.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  /// Completes any queued asynchronous rebuilds, then tears down.
  ~Engine();

  /// False if the configured backend name is unknown (there is no active
  /// snapshot).
  bool valid() const CSC_EXCLUDES(query_mu_) { return snapshot() != nullptr; }
  const std::string& backend_name() const CSC_LIFETIME_BOUND {
    return options_.backend;
  }

  /// Builds the active index from `graph` (synchronous; drains any pending
  /// asynchronous landings first). The graph (plus reserve) is retained to feed
  /// later landings. On failure (unknown backend, or a backend that failed to
  /// materialize the expected vertex space) the previous snapshot, if any,
  /// stays active.
  bool Build(const DiGraph& graph);

  /// Restores the index from a persisted payload. No graph is retained, so
  /// updates are unavailable after LoadFrom — ApplyUpdates returns 0 with
  /// every verdict kNoGraph — until Build is called with the graph.
  bool LoadFrom(const std::string& bytes);

  /// Serves the checksummed index file at `path` directly from a shared
  /// read-only file mapping (csc/index_io.h IndexFile): arena-backed backends
  /// keep their label payloads in the file pages — no deserialization copy,
  /// cold-start is bounded by the envelope CRC pass — and the mapping stays
  /// alive for as long as any snapshot references it. Same post-state as
  /// LoadFrom (updates report kNoGraph until Build). False with `error` set
  /// (when non-null) on I/O, verification, or format failure; multi-shard
  /// bundles are rejected here — serve them via ShardedEngine::LoadFromFile.
  bool LoadFromFile(const std::string& path, std::string* error = nullptr);

  /// Restores the index from an externally owned, already-verified payload
  /// span, retaining `keep_alive` while any snapshot references it —
  /// zero-copy for arena-backed backends. The sharded tier uses this to
  /// point K shard engines at one shared mapping; LoadFromFile is the
  /// single-file convenience over it. `data` is deliberately not
  /// CSC_LIFETIME_BOUND — retaining `keep_alive` makes every snapshot
  /// self-keeping (util/lifetime_annotations.h).
  bool LoadView(const uint8_t* data, size_t size,
                std::shared_ptr<const void> keep_alive);

  bool SaveTo(std::string& bytes) const;

  // --- Queries (serving/engine.cc). Each budget-free form forwards to its
  // QueryOptions overload with an unbounded deadline. The budget is checked
  // cooperatively at chunk boundaries — never inside a lock section — so an
  // expired deadline yields a typed partial result (QueryStatus::kTimeout
  // with the work completed so far), not a hang and not a silent
  // truncation.

  /// SCCnt(v) against the current snapshot.
  CycleCount Query(Vertex v) CSC_EXCLUDES(query_mu_);

  /// Batched SCCnt, positionally aligned with `vertices`, fanned out across
  /// the pool past one batch_grain; results are identical either way.
  std::vector<CycleCount> BatchQuery(const std::vector<Vertex>& vertices)
      CSC_EXCLUDES(query_mu_);

  /// SCCnt for every vertex [0, n).
  std::vector<CycleCount> QueryAll() CSC_EXCLUDES(query_mu_);

  GirthInfo Girth() CSC_EXCLUDES(query_mu_);

  /// SCCnt(v) under a budget. kTimeout when the deadline expired before
  /// the lookup ran (single lookups are not interruptible mid-flight).
  QueryResult Query(Vertex v, const QueryOptions& options)
      CSC_EXCLUDES(query_mu_);

  /// Batched SCCnt under a budget: scans `vertices` in chunks (parallel
  /// across the pool), checking the deadline
  /// between chunks. An unbounded deadline scans a parallel batch in one
  /// fan-out. See BatchQueryResult for the partial-result contract.
  BatchQueryResult BatchQuery(const std::vector<Vertex>& vertices,
                              const QueryOptions& options)
      CSC_EXCLUDES(query_mu_);

  /// Every vertex [0, n) under a budget.
  BatchQueryResult QueryAll(const QueryOptions& options)
      CSC_EXCLUDES(query_mu_);

  /// Girth under a budget: an all-vertex shortest-cycle sweep merged into
  /// GirthInfo, so a timeout still yields the exact girth over the scanned
  /// prefix (GirthResult::scanned).
  GirthResult Girth(const QueryOptions& options) CSC_EXCLUDES(query_mu_);

  /// Applies a batch of edge updates; returns the batch's net-applied count
  /// (rejected no-ops are skipped, and updates on the same edge collapse to
  /// their net effect — an insert/remove pair inside one batch cancels and
  /// counts 0, matching dynamic/batch.h's net-effect reduction). The whole
  /// batch is applied to the retained graph and one repaired or rebuilt
  /// snapshot is swapped in — on the caller's thread by default, by the
  /// background lander under EngineOptions::async_updates (the call then
  /// returns right after validation, graph mutation, and the WAL append). If
  /// the landing fails, the graph mutations are rolled back and the old
  /// snapshot stays active — callers never observe a half-updated index.
  /// Synchronously that means 0 is returned with all-kRejected verdicts;
  /// asynchronously the failure is reported through WaitForEpoch (the failed
  /// epoch — and any epoch admitted on top of it before the failure — rolls
  /// back and reports false).
  ///
  /// Every backend accepts exactly the same updates: endpoints in
  /// [0, num_vertices()) — including vertices added via
  /// EngineOptions::reserve_vertices — with out-of-range endpoints,
  /// self-loops, and present/absent no-ops uniformly rejected.
  ///
  /// When `verdicts` is non-null it is resized to `updates.size()` with the
  /// per-update UpdateVerdict; the sharded serving tier uses this for per-owner
  /// accounting. When `epoch` is non-null it receives the epoch token this
  /// batch lands under: pass it to WaitForEpoch for read-your-writes. A
  /// successful synchronous landing is visible at return, so its token is
  /// already resolved and WaitForEpoch returns immediately; a batch that admits
  /// nothing (fully rejected, net-zero, kNoGraph) receives the newest
  /// successfully landed epoch, which always reports true.
  size_t ApplyUpdates(const std::vector<EdgeUpdate>& updates,
                      std::vector<UpdateVerdict>* verdicts = nullptr,
                      uint64_t* epoch = nullptr)
      CSC_EXCLUDES(land_mu_, update_mu_);

  /// ApplyUpdates under a writer budget. Admission control
  /// (EngineOptions::admission) runs before anything is examined: a batch
  /// that would push the async backlog past its cap — or arrives while the
  /// engine is draining — is shed with every verdict kOverloaded, return 0,
  /// and `*epoch` set to the newest landed epoch. With
  /// admission.block_on_full the writer instead blocks until the lander
  /// lands enough backlog or `deadline` expires (shedding then). The
  /// 3-argument overload above forwards here with an unbounded deadline,
  /// so an uncapped engine behaves exactly as before.
  size_t ApplyUpdates(const std::vector<EdgeUpdate>& updates,
                      const Deadline& deadline,
                      std::vector<UpdateVerdict>* verdicts = nullptr,
                      uint64_t* epoch = nullptr)
      CSC_EXCLUDES(land_mu_, update_mu_);

  /// Would a batch of `ops` net updates be admitted right now? Blocks under
  /// the same block_on_full/deadline policy as ApplyUpdates and counts
  /// shed/blocked the same way — the sharded tier probes every shard with
  /// this before fanning a batch out, so replicas admit or shed as one.
  /// A true return is a guarantee only under the single-writer contract
  /// (the backlog can only shrink between the probe and the apply).
  bool AdmitProbe(size_t ops, const Deadline& deadline)
      CSC_EXCLUDES(update_mu_);

  /// Blocks until `epoch` (an ApplyUpdates token) has resolved. True when
  /// the batch's effect is visible to queries; false when its rebuild
  /// failed and the batch was rolled back (the snapshot still answers for
  /// the pre-batch state). [[nodiscard]]: ignoring the result ignores the
  /// rollback report — a caller that does not care about the outcome wants
  /// Drain().
  [[nodiscard]] bool WaitForEpoch(uint64_t epoch) CSC_EXCLUDES(update_mu_);

  /// As WaitForEpoch, but gives up after `timeout`: kTimeout means the
  /// epoch had not resolved when the deadline expired (the caller is no
  /// longer blocked on a wedged worker), kLanded / kRolledBack mirror the
  /// true / false of the untimed overload.
  WaitStatus WaitForEpoch(uint64_t epoch, std::chrono::milliseconds timeout)
      CSC_EXCLUDES(update_mu_);

  /// Blocks until every update admitted so far has resolved (landed or
  /// rolled back) — the coarse read-your-writes barrier.
  void Drain() CSC_EXCLUDES(update_mu_);

  /// As Drain(), but gives up after `timeout`: kLanded when every admitted
  /// epoch has resolved (landed or rolled back — resolution, not success,
  /// is what Drain waits for; per-epoch outcomes come from WaitForEpoch),
  /// kTimeout when the backlog had not fully resolved in time. Never
  /// kRolledBack.
  [[nodiscard]] WaitStatus Drain(std::chrono::milliseconds timeout)
      CSC_EXCLUDES(update_mu_);

  // --- Lifecycle / health (serving/admission.h HealthState). ---

  /// Coarse serving health: kStarting until a Build/Load commits,
  /// kDraining between BeginDrain and FinishDrain, kOverloaded while the
  /// async backlog is full enough that a new one-op write would shed (or
  /// block, with admission.block_on_full), else kHealthy. A single
  /// Engine never reports kDegraded — that state belongs to the sharded
  /// tier, which owns quarantine.
  HealthState Health() const CSC_EXCLUDES(update_mu_);

  /// Starts a graceful drain: new writes are shed with kOverloaded (reads
  /// keep serving) while the already-admitted backlog lands. False if a
  /// drain was already in progress. Typical handoff:
  ///   BeginDrain(); Drain(budget); FinishDrain();
  bool BeginDrain() CSC_EXCLUDES(update_mu_);

  /// Completes a drain: waits for the admitted backlog to resolve, takes
  /// one exclusive pass over the query lock so every query that began
  /// before the drain has returned (quiesce), then re-opens writes.
  void FinishDrain() CSC_EXCLUDES(update_mu_, query_mu_);

  /// True between BeginDrain and FinishDrain.
  bool draining() const CSC_EXCLUDES(update_mu_);

  /// Point-in-time admission/overload counters (backlog gauges and peaks,
  /// shed/blocked writes, deadline'd-query timeouts, drains). Unlike
  /// repair_stats(), the shed/blocked/timeout counters survive Build — they
  /// describe the engine's lifetime, not the current index generation.
  AdmissionStats admission_stats() const CSC_EXCLUDES(update_mu_);

  /// The newest epoch whose outcome is visible to queries. Epochs are
  /// engine-local and monotonically increasing from 0.
  uint64_t resolved_epoch() const CSC_EXCLUDES(update_mu_);

  /// The current snapshot. A published snapshot never changes: it keeps
  /// answering for the state it was built for, and stays valid after a
  /// later swap retires it.
  std::shared_ptr<CycleIndex> snapshot() const CSC_EXCLUDES(query_mu_);

  Vertex num_vertices() const CSC_EXCLUDES(query_mu_);
  uint64_t MemoryBytes() const CSC_EXCLUDES(query_mu_);
  BackendStats Stats() const CSC_EXCLUDES(query_mu_);

  /// Repair-vs-rebuild decision counters since the last Build. All zeros
  /// while repair_active() is false.
  RepairStats repair_stats() const CSC_EXCLUDES(update_mu_);

  /// True while the engine lands updates through the incremental-repair
  /// pipeline ("csc", or repair enabled on a patchable backend, and a
  /// retained graph). False after LoadFrom/LoadView, or once repair had to
  /// be abandoned (e.g. a shadow restore failed).
  bool repair_active() const CSC_EXCLUDES(update_mu_);

  // --- Crash-safe persistence (EngineOptions::wal_path). ---

  /// True while a write-ahead log is open (wal_path configured and the
  /// last Build / RecoverFromFile established one).
  bool wal_enabled() const CSC_EXCLUDES(update_mu_);

  /// Durable snapshot + log truncation: atomically saves the active index
  /// to `index_path` (temp + fsync + rename), then atomically replaces the
  /// WAL with a fresh log whose checkpoint record is the current retained
  /// graph. Replay cost after a crash is thereafter bounded by the batches
  /// admitted since this call. Drains pending async work first (writer-side
  /// call, single-writer contract). A crash between the save and the
  /// truncation is safe: recovery replays the old log and reaches the same
  /// state. False with `*error` set (when non-null) on failure; on a failed
  /// truncation the engine keeps the previous log generation.
  bool Checkpoint(const std::string& index_path, std::string* error = nullptr)
      CSC_EXCLUDES(update_mu_, query_mu_);

  /// Crash recovery: reads the WAL at EngineOptions::wal_path, rebuilds the
  /// checkpoint-record base graph, and replays every durable batch record
  /// (skipping ones covered by a rollback record) through the ordinary update
  /// path — the recovered index answers every query as an uncrashed engine
  /// that applied the same acknowledged batches does, and the WAL is
  /// re-established (fresh checkpoint + replayed batches) in the process.
  /// Its bytes equal the uncrashed engine's unless the log holds a
  /// Checkpoint and the engine repairs: the base is rebuilt under the
  /// checkpoint graph's degree ordering, while the uncrashed engine kept its
  /// Build-time one (ROADMAP item 5, "Exact warm restart", is the fix).
  /// Epoch numbering restarts from the replay, so pre-crash epoch tokens are
  /// not comparable across a recovery. With the WAL missing or empty, falls
  /// back to LoadFromFile(`index_path`) — a pre-WAL index file loads, but
  /// updates stay unavailable (kNoGraph) and the WAL stays disabled until
  /// the next Build. False with `*error` set (when non-null) on an
  /// unreadable/foreign log, a failed base build, or a failed batch replay.
  bool RecoverFromFile(const std::string& index_path,
                       std::string* error = nullptr)
      CSC_EXCLUDES(land_mu_, update_mu_, query_mu_);

  ThreadPool& pool() CSC_LIFETIME_BOUND { return pool_; }

  /// Replaces the slicing predicate (see EngineOptions::slice_keep). Takes
  /// effect on the next Build / load / landing; call from the single-writer
  /// side (the sharded tier sets it right before Build). The predicate is
  /// guarded by update_mu_ because the async lander copies it when it takes
  /// a backlog — it may be mid-landing when this setter runs.
  void set_slice_keep(std::function<bool(Vertex)> keep)
      CSC_EXCLUDES(update_mu_);

 private:
  /// One admitted-but-unresolved batch: its epoch plus its net-effective
  /// forward ops in admission order — what the repair path replays onto the
  /// shadow when the batch lands, and (inverted, in reverse) what restores the
  /// retained graph if the landing fails.
  struct PendingBatch {
    uint64_t epoch = 0;
    std::vector<EdgeUpdate> ops;
  };

  std::shared_ptr<CycleIndex> MakeFresh() const;
  /// Build's body. `staged_wal` makes the fresh log generation a *staged*
  /// one (Wal::CreateStaged): the on-disk log at wal_path is not replaced
  /// until someone finalizes the handle. Recovery builds this way so a
  /// crash during replay still finds the complete pre-crash log; ordinary
  /// Build passes false and the new generation publishes immediately.
  bool BuildImpl(const DiGraph& graph, bool staged_wal)
      CSC_EXCLUDES(land_mu_, update_mu_, query_mu_);
  /// Installs `next` under the writer side of query_mu_; the retired
  /// snapshot is released after the lock drops.
  void Swap(std::shared_ptr<CycleIndex> next) CSC_EXCLUDES(query_mu_);
  void AdoptLoaded(std::shared_ptr<CycleIndex> next)
      CSC_EXCLUDES(land_mu_, update_mu_, query_mu_);
  /// The one admission gate (ApplyUpdates and AdmitProbe): sheds a batch of
  /// `ops` net updates while draining, on the admission.delay failpoint, or
  /// while the backlog sits at an admission cap — unless
  /// admission.block_on_full lets it wait on epoch_cv_ (releasing `lock`)
  /// until the backlog drains or `deadline` expires. Counts shed and
  /// blocked admissions.
  bool AdmitLocked(MutexLock& lock, size_t ops, const Deadline& deadline)
      CSC_REQUIRES(update_mu_);
  /// The one lander: takes every epoch admitted so far, lands the whole backlog
  /// with update_mu_ released — one repair pass over the shadow, or one
  /// rebuild — swaps the result in, and commits under update_mu_
  /// (RollBackLocked on the first failure). Inline on the writer thread for
  /// synchronous engines; a SerialWorker task per admitted batch under
  /// async_updates (a task that finds its epoch already covered returns at
  /// once).
  void LandEpochs() CSC_EXCLUDES(land_mu_, update_mu_);
  /// Builds a fresh snapshot over `graph` (reserve already materialized in it),
  /// sliced by `slice_keep` when non-null; nullptr on failure. Does not touch
  /// engine state, so it runs with no engine lock held.
  std::shared_ptr<CycleIndex> Rebuild(
      const DiGraph& graph,
      const std::function<bool(Vertex)>& slice_keep) const;
  /// Repair pipeline: replays `ops` onto the shadow and returns the next
  /// snapshot — the current one plus a label patch, or a full snapshot
  /// derived from the shadow's labeling when the shadow was rebuilt or the
  /// snapshot cannot be patched (one encode pass, no BFS). Counts into `*stats`. nullptr on
  /// failure; `*shadow_touched` then tells whether the shadow was mutated
  /// (and so must be restored after the graph rollback).
  std::shared_ptr<CycleIndex> LandRepair(
      const std::vector<EdgeUpdate>& ops,
      const std::function<bool(Vertex)>& slice_keep, RepairStats* stats,
      bool* shadow_touched) CSC_REQUIRES(land_mu_);
  /// The one rollback routine, for a failed landing: undoes every unlanded
  /// batch in reverse admission order (restoring exactly the graph the
  /// still-active snapshot answers for), marks them failed, resolves them,
  /// restores the shadow when `shadow_touched`, records the rollback in the
  /// WAL, and wakes waiters. If the rollback record cannot be written, the
  /// log is re-based on the rolled-back graph so recovery cannot replay
  /// batches that never served; if even that fails, the WAL is poisoned
  /// until the next Build or Checkpoint.
  void RollBackLocked(bool shadow_touched)
      CSC_REQUIRES(land_mu_, update_mu_);
  /// Reverts `ops` (forward ops, admission order) on the retained graph.
  void UndoLocked(const std::vector<EdgeUpdate>& ops)
      CSC_REQUIRES(update_mu_);
  /// Records [first, last] as rolled back / IsFailedLocked(epoch).
  void MarkFailedLocked(uint64_t first, uint64_t last)
      CSC_REQUIRES(update_mu_);
  bool IsFailedLocked(uint64_t epoch) const CSC_REQUIRES(update_mu_);
  /// Blocks on epoch_cv_ (releasing `lock`) until notified or `deadline`
  /// expires; an unbounded deadline waits without a timeout.
  void WaitLocked(MutexLock& lock, const Deadline& deadline)
      CSC_REQUIRES(update_mu_);
  /// Is the async backlog at (or past) an admission cap for a batch of
  /// `incoming_ops` net updates? Always false with the default (uncapped)
  /// AdmissionOptions. The ops cap is only enforced against a non-empty
  /// backlog so an oversized single batch still admits eventually.
  bool BacklogFullLocked(size_t incoming_ops) const CSC_REQUIRES(update_mu_);
  /// Rebuilds the shadow from the (already rolled back) retained graph
  /// under the pinned ordering; on failure disables repair for this engine
  /// — subsequent batches fall back to rebuild-and-swap.
  void RestoreShadowLocked() CSC_REQUIRES(land_mu_, update_mu_);

  EngineOptions options_;
  ThreadPool pool_;
  // The active snapshot pointer. Readers hold it shared; the pointer swap
  // and the FinishDrain quiesce hold it exclusive. Innermost lock: never
  // held while another engine lock is acquired.
  mutable SharedMutex query_mu_;
  std::shared_ptr<CycleIndex> active_ CSC_GUARDED_BY(query_mu_);

  // --- Retained graph + epoch state, guarded by update_mu_: admission,
  // the lander's snapshot-and-commit steps, and the epoch waiters meet
  // here; readers never do. Lock order: land_mu_, then update_mu_, then
  // query_mu_.
  mutable Mutex update_mu_ CSC_ACQUIRED_BEFORE(query_mu_);
  CondVar epoch_cv_;
  // Retained for landings and WAL checkpoints; false only after a load.
  DiGraph graph_ CSC_GUARDED_BY(update_mu_);
  bool has_graph_ CSC_GUARDED_BY(update_mu_) = false;
  // Label slicing predicate (EngineOptions::slice_keep, replaceable via
  // set_slice_keep): the lander copies it when it takes a backlog, so it
  // lives under update_mu_ rather than in options_.
  std::function<bool(Vertex)> slice_keep_ CSC_GUARDED_BY(update_mu_);
  // Newest epoch handed out.
  uint64_t submitted_epoch_ CSC_GUARDED_BY(update_mu_) = 0;
  // Every epoch <= this landed or rolled back.
  uint64_t resolved_epoch_ CSC_GUARDED_BY(update_mu_) = 0;
  // Newest epoch a swap actually landed.
  uint64_t landed_epoch_ CSC_GUARDED_BY(update_mu_) = 0;
  // Rolled-back epochs as disjoint [first, last] ranges, ascending, with
  // adjacent ranges merged. A rollback always covers a contiguous range
  // above every landed epoch, so sustained failure costs one growing range
  // — not one entry per failed epoch.
  std::vector<std::pair<uint64_t, uint64_t>> failed_ranges_
      CSC_GUARDED_BY(update_mu_);
  // Admitted, logged, not yet landed; ascending epoch order.
  std::deque<PendingBatch> unlanded_ CSC_GUARDED_BY(update_mu_);
  // --- Admission / lifecycle state (EngineOptions::admission), guarded by
  // update_mu_ with the backlog it meters. pending_ops_ tracks the total
  // net ops across unlanded_; blocked admissions wait on epoch_cv_, woken
  // by the lander's commit.
  uint64_t pending_ops_ CSC_GUARDED_BY(update_mu_) = 0;
  uint64_t peak_pending_batches_ CSC_GUARDED_BY(update_mu_) = 0;
  uint64_t peak_pending_ops_ CSC_GUARDED_BY(update_mu_) = 0;
  uint64_t shed_batches_ CSC_GUARDED_BY(update_mu_) = 0;
  uint64_t blocked_admissions_ CSC_GUARDED_BY(update_mu_) = 0;
  uint64_t drains_ CSC_GUARDED_BY(update_mu_) = 0;
  // True once a Build/Load commits a serving snapshot (Health kStarting
  // until then); true between BeginDrain and FinishDrain.
  bool serving_ CSC_GUARDED_BY(update_mu_) = false;
  bool draining_ CSC_GUARDED_BY(update_mu_) = false;
  // Deadline'd queries that returned kTimeout. An atomic, not update_mu_
  // state: the read path must never touch the writer lock.
  std::atomic<uint64_t> query_timeouts_{0};
  // Whether landings take the repair path (EngineOptions::repair), and
  // what they did; both read and written with the epoch state.
  bool repair_active_ CSC_GUARDED_BY(update_mu_) = false;
  RepairStats repair_stats_ CSC_GUARDED_BY(update_mu_);
  // Write-ahead log (EngineOptions::wal_path); null while disabled. All
  // appends happen under update_mu_ — admission and the WAL record are one
  // critical section, so records land in epoch order.
  std::unique_ptr<Wal> wal_ CSC_GUARDED_BY(update_mu_);

  // --- The lander's state, guarded by land_mu_. Held for a whole landing
  // (and by BuildImpl / AdoptLoaded, which replace this state), so landings
  // are serialized while admissions, which never take it, proceed. The
  // shadow is the maintenance-authoritative CscIndex: batches mutate it via
  // the §V dynamic algorithms (minimality mode) and the serving snapshot is
  // patched — or derived — from it. The pinned ordering is the degree
  // ordering of the Build-time graph (plus reserve vertices), kept fixed
  // so label ranks stay stable across patches.
  Mutex land_mu_ CSC_ACQUIRED_BEFORE(update_mu_);
  std::unique_ptr<CscIndex> shadow_ CSC_GUARDED_BY(land_mu_);
  VertexOrdering pinned_order_ CSC_GUARDED_BY(land_mu_);
  // Reused across batches (capacity retained).
  DirtyLabelTracker dirty_ CSC_GUARDED_BY(land_mu_);
  bool snapshot_sliced_ CSC_GUARDED_BY(land_mu_) = false;
  // The async lander's thread; lazily started by the first async admission
  // so synchronous engines pay nothing. Destroyed first (tasks touch the
  // members above). The pointer itself is only installed by the writer
  // thread (single-writer contract) under update_mu_.
  std::unique_ptr<SerialWorker> land_worker_ CSC_GUARDED_BY(update_mu_);
};

}  // namespace csc

#endif  // CSC_SERVING_ENGINE_H_
