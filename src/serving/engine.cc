#include "serving/engine.h"

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/label_patch.h"
#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "csc/index_io.h"
#include "dynamic/batch.h"
#include "dynamic/patch.h"
#include "serving/wal.h"
#include "util/env.h"
#include "util/failpoint.h"

namespace csc {

namespace {

uint64_t EdgeKey(const Edge& e) {
  return (uint64_t{e.from} << 32) | e.to;
}

/// Collapses per-update raw successes to the batch's net effect per edge:
/// successful ops on one edge strictly alternate its presence, so an even
/// chain cancels entirely and an odd chain nets to its final op. Returns
/// the net-applied count; `verdicts` (when non-null, pre-sized to
/// kRejected) gets kApplied exactly on each net-changed edge's deciding
/// update. This is the verdict-side mirror of dynamic/batch.h's net-effect
/// reduction, so the two accountings agree on duplicate edges in a batch.
size_t NetEffectVerdicts(const std::vector<EdgeUpdate>& updates,
                         const std::vector<char>& success,
                         std::vector<UpdateVerdict>* verdicts) {
  struct Chain {
    size_t toggles = 0;
    size_t last = 0;
  };
  std::unordered_map<uint64_t, Chain> chains;
  for (size_t i = 0; i < updates.size(); ++i) {
    if (!success[i]) continue;
    Chain& chain = chains[EdgeKey(updates[i].edge)];
    ++chain.toggles;
    chain.last = i;
  }
  size_t net = 0;
  for (const auto& [key, chain] : chains) {
    if (chain.toggles % 2 == 0) continue;  // cancelled out within the batch
    ++net;
    if (verdicts) (*verdicts)[chain.last] = UpdateVerdict::kApplied;
  }
  return net;
}

/// The inverse ops of the batch's successful mutations, in reverse
/// admission order — replaying them restores the graph exactly.
std::vector<EdgeUpdate> InverseOps(const std::vector<EdgeUpdate>& updates,
                                   const std::vector<char>& success) {
  std::vector<EdgeUpdate> undo;
  for (size_t i = updates.size(); i-- > 0;) {
    if (!success[i]) continue;
    const EdgeUpdate& update = updates[i];
    undo.push_back(update.kind == UpdateKind::kInsert
                       ? EdgeUpdate::Remove(update.edge.from, update.edge.to)
                       : EdgeUpdate::Insert(update.edge.from, update.edge.to));
  }
  return undo;
}

/// The successful forward ops in admission order — what the repair path
/// replays onto its shadow index when the batch lands.
std::vector<EdgeUpdate> SuccessfulOps(const std::vector<EdgeUpdate>& updates,
                                      const std::vector<char>& success) {
  std::vector<EdgeUpdate> ops;
  for (size_t i = 0; i < updates.size(); ++i) {
    if (success[i]) ops.push_back(updates[i]);
  }
  return ops;
}

/// The shadow is maintained in minimality mode regardless of the build
/// options: decremental repair (RemoveEdge) requires a minimal index, and
/// only minimality-mode maintenance preserves that precondition inductively
/// across batches.
CscIndex::Options ShadowOptions(unsigned build_threads) {
  CscIndex::Options shadow_options;
  shadow_options.maintain_inverted_index = true;
  shadow_options.build_threads = build_threads;
  return shadow_options;
}

/// One backoff step of the retry policy: sleep, then double (capped).
void BackoffSleep(uint32_t* backoff_ms, const RetryOptions& retry) {
  std::this_thread::sleep_for(std::chrono::milliseconds(*backoff_ms));
  *backoff_ms = std::min(*backoff_ms * 2, std::max(1u, retry.backoff_max_ms));
}

/// One shared deadline probe: the failpoint's error action makes "budget
/// exhausted" deterministic for tests; otherwise it is a real clock check.
bool BudgetExhausted(const Deadline& deadline) {
  if (CSC_FAILPOINT("engine.query_deadline")) return true;
  return deadline.expired();
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      pool_(options_.num_threads == 0 ? ThreadPool::DefaultThreadCount()
                                      : options_.num_threads) {
  // Fold the construction-worker override into the build options once;
  // Build and every static rebuild (sync or async) then pick it up.
  if (options_.build_threads != 0) {
    options_.build.num_threads = options_.build_threads;
  }
  // The slicing predicate moves into update_mu_-guarded state: the rebuild
  // worker reads it off-thread, so it cannot live in plain options_ once
  // set_slice_keep can replace it mid-flight.
  slice_keep_ = std::move(options_.slice_keep);
  active_ = MakeFresh();
}

Engine::~Engine() {
  // Queued rebuild tasks touch graph_/active_; finish them while the
  // members are still alive.
  rebuild_worker_.reset();
}

std::shared_ptr<CycleIndex> Engine::MakeFresh() const {
  return MakeBackend(options_.backend);
}

void Engine::set_slice_keep(std::function<bool(Vertex)> keep) {
  MutexLock lock(update_mu_);
  slice_keep_ = std::move(keep);
}

void Engine::Swap(std::shared_ptr<CycleIndex> next) {
  {
    WriterMutexLock lock(query_mu_);
    active_.swap(next);
  }
  // `next` now holds the retired snapshot: its release (possibly the last
  // reference, tearing down a whole index) happens outside the lock.
}

std::shared_ptr<CycleIndex> Engine::snapshot() const {
  ReaderMutexLock lock(query_mu_);
  return active_;
}

bool Engine::Build(const DiGraph& graph) {
  return BuildImpl(graph, /*staged_wal=*/false);
}

bool Engine::BuildImpl(const DiGraph& graph, bool staged_wal) {
  // A queued async rebuild captures the pre-Build graph; let it resolve
  // before the graph and snapshot are replaced under it.
  Drain();
  // Stable copy of the slicing predicate for the unlocked build below (the
  // single-writer contract means nobody replaces it mid-Build, but the
  // guarded member still cannot be read without the lock).
  std::function<bool(Vertex)> slice_keep;
  {
    MutexLock lock(update_mu_);
    slice_keep = slice_keep_;
  }
  std::shared_ptr<CycleIndex> next = MakeFresh();
  if (!next) return false;
  // Incremental repair (static patchable backends only): build one shadow
  // CscIndex under a pinned ordering and derive the serving form from its
  // compact payload — one labeling construction total, and later batches
  // can land as bounded label patches against snapshots whose ranks never
  // drift.
  bool repair = options_.repair.enabled && !next->supports_updates() &&
                next->supports_label_patch();
  std::unique_ptr<CscIndex> shadow;
  VertexOrdering pinned;
  if (repair) {
    try {
      DiGraph extended = graph;
      extended.AddVertices(options_.build.reserve_vertices);
      // DegreeOrdering is insensitive to trailing isolated vertices, so
      // this pinned ordering is exactly what the backend's own Build would
      // have used — the derived payload is bit-identical to a direct build.
      pinned = DegreeOrdering(extended);
      shadow = std::make_unique<CscIndex>(CscIndex::Build(
          extended, pinned, ShadowOptions(options_.build.num_threads)));
      if (!next->LoadFrom(CompactIndex::FromIndex(*shadow).Serialize())) {
        shadow.reset();
        repair = false;
      }
    } catch (...) {
      shadow.reset();
      repair = false;
    }
  }
  if (!repair) next->Build(graph, options_.build);
  // A backend that did not materialize the requested vertex space (graph
  // plus reserve) must not become the active snapshot; keep serving the
  // previous one.
  if (next->num_vertices() !=
      graph.num_vertices() + options_.build.reserve_vertices) {
    return false;
  }
  bool sliced = false;
  if (slice_keep) sliced = next->SliceLabels(slice_keep);
  // A configured WAL starts a fresh generation on every Build: the new
  // index is the new baseline, so the log is atomically replaced with one
  // checkpoint record of the (reserve-extended) build graph. Created before
  // any engine state mutates — a failed WAL means a failed Build with the
  // previous snapshot (and previous log, if any) untouched. During recovery
  // the generation is only *staged* (appends go to a side file): the
  // crash-time log must survive until every durable batch has been replayed
  // and the new generation is finalized, or a crash mid-replay would lose
  // the acknowledged batches that existed only in the old log.
  std::unique_ptr<Wal> fresh_wal;
  const bool want_wal = !options_.wal_path.empty();
  if (want_wal) {
    DiGraph retained = graph;
    retained.AddVertices(options_.build.reserve_vertices);
    fresh_wal = staged_wal ? Wal::CreateStaged(options_.wal_path, retained)
                           : Wal::CreateFresh(options_.wal_path, retained);
    if (!fresh_wal) return false;
  }
  {
    MutexLock lock(update_mu_);
    // The retained copy only feeds the rebuild-and-swap update path of
    // static backends; dynamic backends maintain their own graph in place,
    // so don't double the adjacency footprint for them — unless a WAL is
    // on, whose checkpoints serialize the retained graph for every backend.
    has_graph_ = !next->supports_updates() || want_wal;
    if (has_graph_) {
      graph_ = graph;
      // Mirror the reserve in the retained graph so the static update path
      // accepts exactly the endpoints dynamic backends accept.
      graph_.AddVertices(options_.build.reserve_vertices);
    } else {
      graph_ = DiGraph();
    }
    wal_ = std::move(fresh_wal);
    repair_active_ = repair && !next->supports_updates();
    shadow_ = repair_active_ ? std::move(shadow) : nullptr;
    pinned_order_ = std::move(pinned);
    dirty_.Reset();
    snapshot_sliced_ = sliced;
    repair_stats_ = RepairStats{};
    serving_ = true;  // Health: kStarting -> kHealthy
  }
  Swap(std::move(next));
  // The labeling construction's scratch and the retired snapshot are free
  // now: hand them back so the serving process keeps only its live index
  // resident, not the build's high-water mark.
  ReleaseFreeMemory();
  return true;
}

// Commits a freshly loaded index: no graph is retained (static-backend
// updates report kNoGraph until Build), and the configured slice applies to
// loads exactly as it does to builds.
void Engine::AdoptLoaded(std::shared_ptr<CycleIndex> next) {
  Drain();
  std::function<bool(Vertex)> slice_keep;
  {
    MutexLock lock(update_mu_);
    slice_keep = slice_keep_;
  }
  if (slice_keep) next->SliceLabels(slice_keep);
  {
    MutexLock lock(update_mu_);
    has_graph_ = false;
    graph_ = DiGraph();  // release any copy retained by an earlier Build
    // No graph means no maintenance; drop the repair pipeline with it —
    // and the WAL, whose checkpoints need a graph to serialize. (A load is
    // an explicit adoption of external state; the old log described an
    // index this engine no longer serves.)
    wal_.reset();
    repair_active_ = false;
    shadow_.reset();
    snapshot_sliced_ = false;
    repair_stats_ = RepairStats{};
    serving_ = true;  // Health: kStarting -> kHealthy
  }
  Swap(std::move(next));
}

bool Engine::LoadFrom(const std::string& bytes) {
  std::shared_ptr<CycleIndex> next = MakeFresh();
  if (!next || !next->LoadFrom(bytes)) return false;
  AdoptLoaded(std::move(next));
  return true;
}

bool Engine::LoadFromFile(const std::string& path, std::string* error) {
  std::shared_ptr<IndexFile> file = IndexFile::Open(path, error);
  if (!file) return false;
  // The shared mapping loader owns bundle rejection and error wording.
  BackendLoadResult loaded = LoadBackendFromMapping(file, options_.backend);
  if (!loaded.ok()) {
    if (error) *error = std::move(loaded.error);
    return false;
  }
  AdoptLoaded(std::move(loaded.index));
  return true;
}

bool Engine::LoadView(const uint8_t* data, size_t size,
                      std::shared_ptr<const void> keep_alive) {
  std::shared_ptr<CycleIndex> next = MakeFresh();
  if (!next || !next->LoadView(data, size, std::move(keep_alive))) {
    return false;
  }
  AdoptLoaded(std::move(next));
  return true;
}

bool Engine::SaveTo(std::string& bytes) const {
  std::shared_ptr<CycleIndex> index = snapshot();
  return index && index->SaveTo(bytes);
}

// Queries. The QueryOptions overloads hold the one implementation; each
// budget-free form forwards to its overload with an unbounded deadline.
//
// Budget protocol: the deadline is checked cooperatively at chunk
// boundaries, never inside a lock section, so an expired budget is
// observed between chunks and the partial result returned describes
// exactly the prefix of work that completed (`answered` mask + `completed`
// count). A timeout is always typed (QueryStatus::kTimeout) — never a
// silent short answer.

CycleCount Engine::Query(Vertex v) { return Query(v, QueryOptions{}).count; }

std::vector<CycleCount> Engine::BatchQuery(
    const std::vector<Vertex>& vertices) {
  return BatchQuery(vertices, QueryOptions{}).counts;
}

std::vector<CycleCount> Engine::QueryAll() {
  return QueryAll(QueryOptions{}).counts;
}

GirthInfo Engine::Girth() { return Girth(QueryOptions{}).info; }

QueryResult Engine::Query(Vertex v, const QueryOptions& options) {
  if (BudgetExhausted(options.deadline)) {
    query_timeouts_.fetch_add(1, std::memory_order_relaxed);
    return {CycleCount{}, QueryStatus::kTimeout};
  }
  {
    // The snapshot is read through a raw pointer inside the read section:
    // no shared_ptr copy, so concurrent readers write nothing but their own
    // lock stripe.
    ReaderMutexLock lock(query_mu_);
    CycleIndex* index = active_.get();
    if (index == nullptr) return {};
    if (index->thread_safe_queries()) {
      return {index->CountShortestCycles(v), QueryStatus::kOk};
    }
  }
  // A backend whose queries mutate internal state answers one at a time.
  // (A published snapshot is never replaced by null.)
  WriterMutexLock lock(query_mu_);
  return {active_->CountShortestCycles(v), QueryStatus::kOk};
}

BatchQueryResult Engine::BatchQuery(const std::vector<Vertex>& vertices,
                                    const QueryOptions& options) {
  const size_t n = vertices.size();
  BatchQueryResult result;
  result.counts.assign(n, CycleCount{});
  result.answered.assign(n, 0);
  // Pinned for the whole batch: a swap mid-scan retires the snapshot but
  // cannot free it, so every answer comes from one index.
  const std::shared_ptr<CycleIndex> index = snapshot();
  if (!index) {
    // No index answers every vertex with an empty count — a complete (if
    // vacuous) answer, not a timeout.
    std::fill(result.answered.begin(), result.answered.end(), char{1});
    result.completed = n;
    return result;
  }
  const bool thread_safe = index->thread_safe_queries();
  // A static snapshot never changes once published, so the pin alone makes
  // its scan safe: it runs outside the read section, and a swap never
  // waits for a sweep. In-place backends scan under query_mu_ — shared when
  // their queries are thread-safe, exclusive otherwise — so no update
  // lands mid-chunk.
  const bool immutable = thread_safe && !index->supports_updates();
  const bool parallel =
      thread_safe && pool_.num_threads() > 1 && n > options_.batch_grain;
  // Chunk boundaries are where the budget is checked. A parallel chunk
  // keeps every pool thread busy between checks; with no deadline the
  // whole batch is one fan-out, so a sweep pays one barrier.
  size_t stride = std::max<size_t>(1, options_.batch_grain);
  if (parallel) {
    stride = options.deadline.unbounded() ? n : stride * pool_.num_threads();
  }
  auto scan = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      result.counts[i] = index->CountShortestCycles(vertices[i]);
    }
  };
  auto run = [&](size_t lo, size_t hi) {
    if (parallel) {
      ParallelFor(pool_, lo, hi, options_.batch_grain, scan);
    } else {
      scan(lo, hi);
    }
  };
  for (size_t begin = 0; begin < n;) {
    if (BudgetExhausted(options.deadline)) {
      query_timeouts_.fetch_add(1, std::memory_order_relaxed);
      result.completed = begin;
      result.status = QueryStatus::kTimeout;
      return result;
    }
    const size_t end = std::min(n, begin + stride);
    if (immutable) {
      run(begin, end);
    } else if (thread_safe) {
      ReaderMutexLock lock(query_mu_);
      run(begin, end);
    } else {
      WriterMutexLock lock(query_mu_);
      run(begin, end);
    }
    std::fill(result.answered.begin() + begin, result.answered.begin() + end,
              char{1});
    begin = end;
  }
  result.completed = n;
  return result;
}

BatchQueryResult Engine::QueryAll(const QueryOptions& options) {
  const Vertex n = num_vertices();
  std::vector<Vertex> vertices(n);
  for (Vertex v = 0; v < n; ++v) vertices[v] = v;
  return BatchQuery(vertices, options);
}

GirthResult Engine::Girth(const QueryOptions& options) {
  // A deadline'd full sweep folded in vertex order, the same fold the
  // sharded tier merges: a timeout reports how far the sweep got
  // (`scanned`) with the girth over that prefix, and a complete sweep is
  // exactly CycleIndex::Girth's answer.
  const BatchQueryResult sweep = QueryAll(options);
  GirthResult result;
  result.status = sweep.status;
  result.scanned = static_cast<Vertex>(sweep.completed);
  result.info = ComputeGirth(
      result.scanned, [&sweep](Vertex v) { return sweep.counts[v]; });
  return result;
}

std::shared_ptr<CycleIndex> Engine::RebuildStatic(
    const DiGraph& graph,
    const std::function<bool(Vertex)>& slice_keep) const {
  // A throwing build (e.g. std::bad_alloc, or a staging-task exception
  // rethrown by ThreadPool::Wait under build_threads) must surface as a
  // failed rebuild, not an exception: callers run the rollback protocol on
  // nullptr, and on the async path a throw would escape the SerialWorker
  // task and terminate the process. The test hook sits inside the guard so
  // tests can inject the throwing variant too.
  try {
    if (options_.fail_rebuild_for_testing &&
        options_.fail_rebuild_for_testing()) {
      return nullptr;
    }
    // Injectable transient failure (one per armed action, so a retrying
    // caller's next attempt passes — the retry-success test shape).
    if (CSC_FAILPOINT("engine.rebuild")) return nullptr;
    std::shared_ptr<CycleIndex> next = MakeFresh();
    if (!next) return nullptr;
    // graph_ already carries the reserved vertices from Build; reserving
    // again on every rebuild would grow the vertex space without bound.
    CycleIndex::BuildOptions rebuild_options = options_.build;
    rebuild_options.reserve_vertices = 0;
    next->Build(graph, rebuild_options);
    if (next->num_vertices() != graph.num_vertices()) return nullptr;
    if (slice_keep) next->SliceLabels(slice_keep);
    return next;
  } catch (...) {
    return nullptr;
  }
}

bool Engine::LandRepairLocked(const std::vector<EdgeUpdate>& ops,
                              bool* shadow_touched) {
  if (shadow_touched) *shadow_touched = false;
  try {
    if (options_.fail_patch_for_testing && options_.fail_patch_for_testing()) {
      // Injected before any shadow mutation: the ordinary graph undo is a
      // complete rollback.
      return false;
    }
    // Injectable transient patch failure, same pre-shadow position as the
    // test hook (so it is retryable — see LandRepairRetryingLocked).
    if (CSC_FAILPOINT("engine.patch")) return false;
    if (!shadow_) return false;
    if (shadow_touched) *shadow_touched = true;
    dirty_.Reset();
    BatchOptions batch_options;
    batch_options.strategy = MaintenanceStrategy::kMinimality;
    batch_options.rebuild_threshold = options_.repair.rebuild_threshold;
    batch_options.pinned_order = &pinned_order_;
    batch_options.dirty = &dirty_;
    BatchResult result = csc::ApplyUpdates(*shadow_, ops, batch_options);
    std::shared_ptr<CycleIndex> next;
    bool patched = false;
    if (!result.rebuilt) {
      LabelPatch patch = ExtractLabelPatch(*shadow_, dirty_);
      if (snapshot_sliced_ && slice_keep_) {
        // A sliced snapshot holds only owned runs; patches must not smuggle
        // unowned labels back in. The predicate is copied out of the
        // guarded member so the filter lambdas stay free of guarded reads
        // (a lambda body is analyzed as its own unannotated function).
        const std::function<bool(Vertex)> keep = slice_keep_;
        auto drop_unowned =
            [&keep](std::vector<std::pair<Vertex, LabelSet>>& runs) {
              std::erase_if(runs,
                            [&keep](const std::pair<Vertex, LabelSet>& run) {
                              return !keep(run.first);
                            });
            };
        drop_unowned(patch.in_runs);
        drop_unowned(patch.out_runs);
      }
      const RepairOptions& repair = options_.repair;
      bool within_budget = (repair.max_repair_hubs == 0 ||
                            patch.RunCount() <= repair.max_repair_hubs) &&
                           (repair.max_patch_bytes == 0 ||
                            patch.LabelBytes() <= repair.max_patch_bytes);
      if (within_budget) {
        std::shared_ptr<CycleIndex> current = snapshot();
        if (current) {
          if (std::unique_ptr<CycleIndex> clone =
                  current->ApplyLabelPatch(patch)) {
            repair_stats_.hubs_repaired += patch.RunCount();
            repair_stats_.label_bytes += patch.LabelBytes();
            next = std::move(clone);
            patched = true;
          }
        }
      }
    }
    if (!next) {
      // Shadow rebuilt, over-budget patch, or unpatchable snapshot: derive
      // a full snapshot from the shadow's labeling — one encode+decode
      // pass, still no BFS.
      next = MakeFresh();
      if (!next ||
          !next->LoadFrom(CompactIndex::FromIndex(*shadow_).Serialize())) {
        return false;
      }
      snapshot_sliced_ = slice_keep_ && next->SliceLabels(slice_keep_);
    }
    if (patched) {
      ++repair_stats_.patches;
    } else {
      ++repair_stats_.rebuilds;
    }
    Swap(std::move(next));
    return true;
  } catch (...) {
    return false;
  }
}

std::shared_ptr<CycleIndex> Engine::RebuildStaticRetrying(
    const DiGraph& graph, const std::function<bool(Vertex)>& slice_keep,
    uint64_t* retries) const {
  const uint32_t max_attempts = std::max(1u, options_.retry.max_attempts);
  uint32_t backoff_ms = std::max(1u, options_.retry.backoff_initial_ms);
  for (uint32_t attempt = 1;; ++attempt) {
    std::shared_ptr<CycleIndex> next = RebuildStatic(graph, slice_keep);
    if (next != nullptr || attempt >= max_attempts) return next;
    if (retries != nullptr) ++*retries;
    BackoffSleep(&backoff_ms, options_.retry);
  }
}

bool Engine::LandRepairRetryingLocked(const std::vector<EdgeUpdate>& ops,
                                      bool* shadow_touched) {
  const uint32_t max_attempts = std::max(1u, options_.retry.max_attempts);
  uint32_t backoff_ms = std::max(1u, options_.retry.backoff_initial_ms);
  for (uint32_t attempt = 1;; ++attempt) {
    if (LandRepairLocked(ops, shadow_touched)) {
      if (attempt > 1) ++repair_stats_.retry_successes;
      return true;
    }
    // A touched shadow is half-maintained: re-driving the same ops would
    // double-apply, so only pre-shadow failures are transient enough to
    // retry. The backoff sleep happens under update_mu_ (bounded by
    // max_attempts x backoff_max) — admissions wait, readers don't.
    if ((shadow_touched != nullptr && *shadow_touched) ||
        attempt >= max_attempts) {
      return false;
    }
    ++repair_stats_.retries;
    BackoffSleep(&backoff_ms, options_.retry);
  }
}

void Engine::RestoreShadowLocked() {
  if (!repair_active_ || !shadow_) return;
  try {
    // graph_ has already been rolled back by the caller, so a rebuild under
    // the pinned ordering reproduces the exact pre-batch shadow.
    *shadow_ = CscIndex::Build(graph_, pinned_order_,
                               ShadowOptions(options_.build.num_threads));
  } catch (...) {
    // Can't restore the maintenance state; abandon repair for this engine.
    // Later batches fall back to legacy rebuild-and-swap, which only needs
    // the graph.
    repair_active_ = false;
    shadow_.reset();
  }
}

void Engine::ApplyUndoLocked(const std::vector<EdgeUpdate>& undo) {
  for (const EdgeUpdate& update : undo) {
    if (update.kind == UpdateKind::kInsert) {
      graph_.AddEdge(update.edge.from, update.edge.to);
    } else {
      graph_.RemoveEdge(update.edge.from, update.edge.to);
    }
  }
}

void Engine::MarkFailedLocked(uint64_t first, uint64_t last) {
  // Rollbacks only ever cover epochs above everything recorded so far, so
  // a new range either extends the last one or appends after it.
  if (!failed_ranges_.empty() && failed_ranges_.back().second + 1 >= first) {
    failed_ranges_.back().second = std::max(failed_ranges_.back().second, last);
  } else {
    failed_ranges_.push_back({first, last});
  }
}

bool Engine::IsFailedLocked(uint64_t epoch) const {
  auto it = std::upper_bound(
      failed_ranges_.begin(), failed_ranges_.end(), epoch,
      [](uint64_t e, const std::pair<uint64_t, uint64_t>& range) {
        return e < range.first;
      });
  return it != failed_ranges_.begin() && epoch <= std::prev(it)->second;
}

void Engine::RebuildEpochTask() {
  // The async path's injectable wedge/crash site: a delay action here
  // stalls the SerialWorker (what the WaitForEpoch deadline overload is
  // for), an abort action crashes mid-flight with admitted-but-unlanded
  // epochs in the WAL.
  (void)CSC_FAILPOINT("engine.async_rebuild");
  uint64_t target;
  DiGraph graph_copy;
  std::function<bool(Vertex)> slice_keep;
  {
    MutexLock lock(update_mu_);
    // An earlier task's rebuild already covered every admitted epoch (the
    // coalescing fast path: one queued task per batch, one rebuild per
    // backlog).
    if (resolved_epoch_ >= submitted_epoch_) return;
    target = submitted_epoch_;
    if (unlanded_.empty()) {
      // Every outstanding epoch failed at admission (a WAL append that
      // could not become durable): each one's graph mutations were already
      // undone and the epoch marked failed — there is nothing to land,
      // just resolve the range so waiters wake with the rollback report.
      resolved_epoch_ = target;
      epoch_cv_.NotifyAll();
      return;
    }
    if (repair_active_) {
      // Repair path: coalesce every unlanded batch's forward ops into one
      // shadow maintenance pass and land it as a patch (or a derived
      // snapshot). Unlike a BFS rebuild this is bounded work, so it runs
      // under update_mu_ — admissions wait microseconds, readers never
      // block (they don't take this lock).
      std::vector<EdgeUpdate> ops;
      for (const PendingBatch& batch : unlanded_) {
        ops.insert(ops.end(), batch.ops.begin(), batch.ops.end());
      }
      bool shadow_touched = false;
      if (LandRepairRetryingLocked(ops, &shadow_touched)) {
        // Epochs in (back().epoch, target] are append-failed ones that
        // never entered the backlog — resolved here, but never landed.
        landed_epoch_ = unlanded_.back().epoch;
        unlanded_.clear();  // the pass covered every unlanded batch
        pending_ops_ = 0;
        resolved_epoch_ = target;
      } else {
        for (auto it = unlanded_.rbegin(); it != unlanded_.rend(); ++it) {
          ApplyUndoLocked(it->undo);
        }
        const uint64_t first_failed = unlanded_.front().epoch;
        MarkFailedLocked(first_failed, target);
        // Best-effort: without this record, recovery replays the rolled-back
        // batches (at-least-once); with it, replay skips them exactly.
        if (wal_) (void)wal_->AppendRollback(first_failed, target);
        unlanded_.clear();
        pending_ops_ = 0;
        resolved_epoch_ = target;
        if (shadow_touched) RestoreShadowLocked();
      }
      epoch_cv_.NotifyAll();
      return;
    }
    graph_copy = graph_;
    slice_keep = slice_keep_;
  }
  // The expensive part runs with no engine lock held: admissions and
  // queries proceed while the fresh index builds off to the side. The
  // slicing predicate was copied under the lock above, so a concurrent
  // set_slice_keep cannot race this read.
  uint64_t retries = 0;
  std::shared_ptr<CycleIndex> next =
      RebuildStaticRetrying(graph_copy, slice_keep, &retries);
  MutexLock lock(update_mu_);
  repair_stats_.retries += retries;
  if (next) {
    if (retries > 0) ++repair_stats_.retry_successes;
    Swap(std::move(next));
    // landed_epoch_ tracks the newest batch the swap actually covered —
    // epochs <= target absent from the backlog failed at admission and
    // resolve without ever landing.
    while (!unlanded_.empty() && unlanded_.front().epoch <= target) {
      landed_epoch_ = unlanded_.front().epoch;
      pending_ops_ -= unlanded_.front().undo.size();
      unlanded_.pop_front();
    }
    resolved_epoch_ = target;
  } else {
    // Rollback: the failed rebuild covered the state up to `target`, and
    // any batch admitted after the graph copy was validated on top of that
    // state — its verdicts are void too. Undo every unlanded batch in
    // reverse admission order, restoring the exact graph the still-active
    // snapshot answers for, and report all of them failed.
    for (auto it = unlanded_.rbegin(); it != unlanded_.rend(); ++it) {
      ApplyUndoLocked(it->undo);
    }
    const uint64_t first_failed = unlanded_.front().epoch;
    MarkFailedLocked(first_failed, submitted_epoch_);
    if (wal_) (void)wal_->AppendRollback(first_failed, submitted_epoch_);
    unlanded_.clear();
    pending_ops_ = 0;
    resolved_epoch_ = submitted_epoch_;
  }
  epoch_cv_.NotifyAll();
}

size_t Engine::ApplyUpdates(const std::vector<EdgeUpdate>& updates,
                            std::vector<UpdateVerdict>* verdicts,
                            uint64_t* epoch) {
  // Unbounded deadline: an uncapped engine behaves exactly as before; a
  // capped one blocks indefinitely (block_on_full) or sheds immediately.
  return ApplyUpdates(updates, Deadline(), verdicts, epoch);
}

size_t Engine::ApplyUpdates(const std::vector<EdgeUpdate>& updates,
                            const Deadline& deadline,
                            std::vector<UpdateVerdict>* verdicts,
                            uint64_t* epoch) {
  if (verdicts) verdicts->assign(updates.size(), UpdateVerdict::kRejected);
  {
    // Draining: writes are shed at the door on every path (dynamic and
    // static alike) so the admitted backlog can land and quiesce.
    MutexLock lock(update_mu_);
    if (draining_) {
      ++shed_batches_;
      if (verdicts) {
        verdicts->assign(updates.size(), UpdateVerdict::kOverloaded);
      }
      if (epoch) *epoch = landed_epoch_;
      return 0;
    }
  }
  std::shared_ptr<CycleIndex> index = snapshot();
  // Trivially-resolved paths hand out the newest *landed* epoch: it is
  // already resolved and never a rolled-back one, so WaitForEpoch on it
  // reports true instead of inheriting an earlier batch's failure.
  auto resolved_now = [this, epoch] {
    if (!epoch) return;
    MutexLock lock(update_mu_);
    *epoch = landed_epoch_;
  };
  if (!index) {
    resolved_now();
    return 0;
  }
  if (index->supports_updates()) {
    // WAL durability-before-mutation: an in-place backend cannot roll
    // back, so the raw batch must be durable before the first label
    // mutation — a failed append rejects the whole batch with the index
    // untouched. (Replay re-applies the raw batch in order; rejections
    // recur identically, so the trajectory matches the uncrashed one.)
    uint64_t admitted = 0;
    bool logged = false;
    {
      MutexLock lock(update_mu_);
      if (wal_) {
        admitted = ++submitted_epoch_;
        if (!wal_->AppendBatch(admitted, updates)) {
          MarkFailedLocked(admitted, admitted);
          resolved_epoch_ = admitted;
          epoch_cv_.NotifyAll();
          if (epoch) *epoch = admitted;
          return 0;
        }
        logged = true;
      }
    }
    // In-place repair under the writer lock: excludes both the parallel
    // reader pool and serialized queries, so no query ever observes a
    // half-applied update. Effects are visible at return, so the epoch
    // token is already resolved.
    std::vector<char> success(updates.size(), 0);
    {
      WriterMutexLock lock(query_mu_);
      for (size_t i = 0; i < updates.size(); ++i) {
        const EdgeUpdate& update = updates[i];
        CycleIndex::UpdateResult result =
            update.kind == UpdateKind::kInsert
                ? index->InsertEdge(update.edge.from, update.edge.to)
                : index->DeleteEdge(update.edge.from, update.edge.to);
        success[i] = result == CycleIndex::UpdateResult::kApplied ? 1 : 0;
      }
    }
    size_t net = NetEffectVerdicts(updates, success, verdicts);
    if (logged) {
      // Mirror the applied ops into the retained graph — Checkpoint
      // serializes it as the next log generation's base. Taken after
      // query_mu_ was released: update_mu_ is never acquired under it.
      MutexLock lock(update_mu_);
      for (size_t i = 0; i < updates.size(); ++i) {
        if (!success[i]) continue;
        const EdgeUpdate& update = updates[i];
        if (update.kind == UpdateKind::kInsert) {
          graph_.AddEdge(update.edge.from, update.edge.to);
        } else {
          graph_.RemoveEdge(update.edge.from, update.edge.to);
        }
      }
      resolved_epoch_ = admitted;
      landed_epoch_ = admitted;
      epoch_cv_.NotifyAll();
      if (epoch) *epoch = admitted;
    } else {
      resolved_now();
    }
    return net;
  }
  // Static serving form: mutate the retained graph, rebuild off to the
  // side, swap once. Readers keep the old snapshot until the swap.
  MutexLock lock(update_mu_);
  if (!has_graph_) {
    if (verdicts) verdicts->assign(updates.size(), UpdateVerdict::kNoGraph);
    if (epoch) *epoch = landed_epoch_;
    return 0;
  }
  if (options_.async_updates) {
    // Admission gate: refuse (or block, with block_on_full) before anything
    // is examined or mutated, so a shed batch leaves zero trace. The
    // failpoint's error action is a deterministic shed; its delay action
    // stalls the admission decision itself.
    bool shed = CSC_FAILPOINT("admission.delay");
    bool waited = false;
    while (!shed && BacklogFullLocked(updates.size())) {
      if (!options_.admission.block_on_full || deadline.expired()) {
        shed = true;
        break;
      }
      waited = true;
      if (deadline.unbounded()) {
        epoch_cv_.Wait(lock);
      } else {
        (void)epoch_cv_.WaitFor(lock, deadline.remaining());
      }
    }
    if (shed) {
      ++shed_batches_;
      if (verdicts) {
        verdicts->assign(updates.size(), UpdateVerdict::kOverloaded);
      }
      if (epoch) *epoch = landed_epoch_;
      return 0;
    }
    if (waited) ++blocked_admissions_;
  }
  std::vector<char> success(updates.size(), 0);
  for (size_t i = 0; i < updates.size(); ++i) {
    const EdgeUpdate& update = updates[i];
    success[i] = (update.kind == UpdateKind::kInsert
                      ? graph_.AddEdge(update.edge.from, update.edge.to)
                      : graph_.RemoveEdge(update.edge.from, update.edge.to))
                     ? 1
                     : 0;
  }
  size_t net = NetEffectVerdicts(updates, success, verdicts);
  if (net == 0) {
    // Either nothing changed, or every change cancelled within the batch —
    // the graph is back to the state the snapshot answers for either way,
    // so there is nothing to rebuild (and no new epoch to hand out).
    if (epoch) *epoch = landed_epoch_;
    return 0;
  }
  uint64_t admitted = ++submitted_epoch_;
  // Durability before acknowledgment: the batch record (its successful
  // forward ops, admission order) must be on stable storage before this
  // call returns an epoch the caller may treat as admitted. A failed
  // append undoes the graph mutations and rejects the batch — nothing to
  // replay, nothing acknowledged.
  if (wal_ && !wal_->AppendBatch(admitted, SuccessfulOps(updates, success))) {
    ApplyUndoLocked(InverseOps(updates, success));
    MarkFailedLocked(admitted, admitted);
    if (resolved_epoch_ + 1 == admitted) {
      // No earlier epoch in flight: this one resolves on the spot.
      resolved_epoch_ = admitted;
      epoch_cv_.NotifyAll();
    } else {
      // Earlier admitted epochs are still unresolved (async mode). Jumping
      // resolved_epoch_ straight to `admitted` would make their queued
      // rebuild task no-op, stranding their batches in unlanded_ while
      // WaitForEpoch reports them landed. Resolve through the worker
      // instead — a fresh task is queued because an in-flight one may have
      // read submitted_epoch_ before this admission and would stop short.
      if (!rebuild_worker_) rebuild_worker_ = std::make_unique<SerialWorker>();
      rebuild_worker_->Submit([this] { RebuildEpochTask(); });
    }
    if (epoch) *epoch = admitted;
    if (verdicts) verdicts->assign(updates.size(), UpdateVerdict::kRejected);
    return 0;
  }
  if (epoch) *epoch = admitted;
  if (options_.async_updates) {
    // Admission only: hand out the epoch, remember how to undo this batch,
    // and let the rebuild worker land it. One task per batch — a task that
    // finds its epoch already covered by a predecessor's rebuild no-ops.
    unlanded_.push_back({admitted, InverseOps(updates, success),
                         repair_active_ ? SuccessfulOps(updates, success)
                                        : std::vector<EdgeUpdate>{}});
    pending_ops_ += unlanded_.back().undo.size();
    peak_pending_batches_ =
        std::max<uint64_t>(peak_pending_batches_, unlanded_.size());
    peak_pending_ops_ = std::max(peak_pending_ops_, pending_ops_);
    if (!rebuild_worker_) rebuild_worker_ = std::make_unique<SerialWorker>();
    rebuild_worker_->Submit([this] { RebuildEpochTask(); });
    return net;
  }
  if (repair_active_) {
    bool shadow_touched = false;
    if (LandRepairRetryingLocked(SuccessfulOps(updates, success),
                                 &shadow_touched)) {
      resolved_epoch_ = admitted;
      landed_epoch_ = admitted;
      epoch_cv_.NotifyAll();
      return net;
    }
    ApplyUndoLocked(InverseOps(updates, success));
    MarkFailedLocked(admitted, admitted);
    if (wal_) (void)wal_->AppendRollback(admitted, admitted);
    resolved_epoch_ = admitted;
    if (shadow_touched) RestoreShadowLocked();
    epoch_cv_.NotifyAll();
    if (verdicts) verdicts->assign(updates.size(), UpdateVerdict::kRejected);
    return 0;
  }
  uint64_t retries = 0;
  std::shared_ptr<CycleIndex> next =
      RebuildStaticRetrying(graph_, slice_keep_, &retries);
  repair_stats_.retries += retries;
  if (!next) {
    // Leave the old snapshot serving and undo the graph mutations so a
    // later batch starts from the state the snapshot answers for.
    ApplyUndoLocked(InverseOps(updates, success));
    MarkFailedLocked(admitted, admitted);
    if (wal_) (void)wal_->AppendRollback(admitted, admitted);
    resolved_epoch_ = admitted;
    epoch_cv_.NotifyAll();
    if (verdicts) verdicts->assign(updates.size(), UpdateVerdict::kRejected);
    return 0;
  }
  if (retries > 0) ++repair_stats_.retry_successes;
  Swap(std::move(next));
  resolved_epoch_ = admitted;
  landed_epoch_ = admitted;
  epoch_cv_.NotifyAll();
  return net;
}

bool Engine::WaitForEpoch(uint64_t epoch) {
  MutexLock lock(update_mu_);
  while (resolved_epoch_ < epoch) epoch_cv_.Wait(lock);
  return !IsFailedLocked(epoch);
}

WaitStatus Engine::WaitForEpoch(uint64_t epoch,
                                std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(update_mu_);
  while (resolved_epoch_ < epoch) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return WaitStatus::kTimeout;
    // Ceil so a sub-millisecond remainder still sleeps (a truncated 0ms
    // wait would spin against the deadline check).
    (void)epoch_cv_.WaitFor(
        lock, std::chrono::ceil<std::chrono::milliseconds>(deadline - now));
  }
  return IsFailedLocked(epoch) ? WaitStatus::kRolledBack : WaitStatus::kLanded;
}

void Engine::Drain() {
  MutexLock lock(update_mu_);
  while (resolved_epoch_ < submitted_epoch_) epoch_cv_.Wait(lock);
}

WaitStatus Engine::Drain(std::chrono::milliseconds timeout) {
  const Deadline deadline = Deadline::After(timeout);
  MutexLock lock(update_mu_);
  while (resolved_epoch_ < submitted_epoch_) {
    if (deadline.expired()) return WaitStatus::kTimeout;
    (void)epoch_cv_.WaitFor(lock, deadline.remaining());
  }
  // kLanded here means "every admitted epoch resolved", not "every batch
  // succeeded" — individual rollbacks are reported per-epoch by
  // WaitForEpoch. A drain itself never reports kRolledBack.
  return WaitStatus::kLanded;
}

bool Engine::AdmitProbe(size_t ops, const Deadline& deadline) {
  MutexLock lock(update_mu_);
  if (draining_) {
    ++shed_batches_;
    return false;
  }
  if (!options_.async_updates) return true;
  bool waited = false;
  while (BacklogFullLocked(ops)) {
    if (!options_.admission.block_on_full || deadline.expired()) {
      ++shed_batches_;
      return false;
    }
    waited = true;
    if (deadline.unbounded()) {
      epoch_cv_.Wait(lock);
    } else {
      (void)epoch_cv_.WaitFor(lock, deadline.remaining());
    }
  }
  if (waited) ++blocked_admissions_;
  return true;
}

bool Engine::BacklogFullLocked(size_t incoming_ops) const {
  const AdmissionOptions& cap = options_.admission;
  if (cap.max_pending_batches != 0 &&
      unlanded_.size() >= cap.max_pending_batches) {
    return true;
  }
  // Ops cap only bites against a non-empty backlog: a single batch larger
  // than the cap must still admit once the backlog empties, or it would
  // shed forever.
  if (cap.max_pending_ops != 0 && !unlanded_.empty() &&
      pending_ops_ + incoming_ops > cap.max_pending_ops) {
    return true;
  }
  return false;
}

HealthState Engine::Health() const {
  MutexLock lock(update_mu_);
  if (draining_) return HealthState::kDraining;
  if (!serving_) return HealthState::kStarting;
  // kDegraded is a sharded-tier notion (quarantine, BFS fallback); a
  // single engine is either keeping up or it is not.
  if (options_.async_updates && BacklogFullLocked(0)) {
    return HealthState::kOverloaded;
  }
  return HealthState::kHealthy;
}

bool Engine::BeginDrain() {
  MutexLock lock(update_mu_);
  if (draining_) return false;
  draining_ = true;
  ++drains_;
  return true;
}

void Engine::FinishDrain() {
  // Land whatever was admitted before the drain began...
  Drain();
  {
    // ...and quiesce: taking query_mu_ exclusively once guarantees every
    // query that started before the drain has finished before we reopen.
    WriterMutexLock lock(query_mu_);
  }
  MutexLock lock(update_mu_);
  draining_ = false;
}

bool Engine::draining() const {
  MutexLock lock(update_mu_);
  return draining_;
}

AdmissionStats Engine::admission_stats() const {
  MutexLock lock(update_mu_);
  AdmissionStats stats;
  stats.pending_batches = unlanded_.size();
  stats.pending_ops = pending_ops_;
  stats.peak_pending_batches = peak_pending_batches_;
  stats.peak_pending_ops = peak_pending_ops_;
  stats.shed_batches = shed_batches_;
  stats.blocked_admissions = blocked_admissions_;
  stats.query_timeouts = query_timeouts_.load(std::memory_order_relaxed);
  stats.drains = drains_;
  return stats;
}

uint64_t Engine::resolved_epoch() const {
  MutexLock lock(update_mu_);
  return resolved_epoch_;
}

Vertex Engine::num_vertices() const {
  std::shared_ptr<CycleIndex> index = snapshot();
  return index ? index->num_vertices() : 0;
}

uint64_t Engine::MemoryBytes() const {
  std::shared_ptr<CycleIndex> index = snapshot();
  return index ? index->MemoryBytes() : 0;
}

BackendStats Engine::Stats() const {
  std::shared_ptr<CycleIndex> index = snapshot();
  return index ? index->Stats() : BackendStats{};
}

RepairStats Engine::repair_stats() const {
  MutexLock lock(update_mu_);
  // Admission counters live outside repair_stats_ because Build/AdoptLoaded
  // reset repair_stats_ per index generation, while shed/blocked span the
  // engine's lifetime. Stitch them in here.
  RepairStats stats = repair_stats_;
  stats.shed_batches = shed_batches_;
  stats.blocked_admissions = blocked_admissions_;
  return stats;
}

bool Engine::repair_active() const {
  MutexLock lock(update_mu_);
  return repair_active_;
}

bool Engine::wal_enabled() const {
  MutexLock lock(update_mu_);
  return wal_ != nullptr;
}

bool Engine::Checkpoint(const std::string& index_path, std::string* error) {
  // Resolve every in-flight epoch first: the snapshot and the retained
  // graph must describe the same state when they become the new baseline.
  Drain();
  MutexLock lock(update_mu_);
  if (!wal_) {
    if (error) *error = "checkpoint requires an enabled write-ahead log";
    return false;
  }
  std::shared_ptr<CycleIndex> index = snapshot();
  if (!index) {
    if (error) *error = "no active index to checkpoint";
    return false;
  }
  // Save first, truncate second: a crash between the two leaves the old
  // log (full history since the previous checkpoint) next to the new
  // snapshot file, and recovery replays the log — same state, nothing
  // lost. The save itself is atomic (temp + fsync + rename).
  if (!SaveBackendToFile(*index, index_path)) {
    if (error) {
      *error = "checkpoint save failed for '" + index_path + "'";
    }
    return false;
  }
  std::unique_ptr<Wal> fresh = Wal::CreateFresh(options_.wal_path, graph_,
                                                error);
  if (!fresh) {
    // CreateFresh renames last, so any failure — open, write, fsync, or
    // the rename itself — leaves the previous log generation intact on
    // disk with the current handle still appending to it.
    return false;
  }
  wal_ = std::move(fresh);
  return true;
}

bool Engine::RecoverFromFile(const std::string& index_path,
                             std::string* error) {
  if (options_.wal_path.empty()) return LoadFromFile(index_path, error);
  std::vector<WalRecord> records;
  if (!Wal::ReadAll(options_.wal_path, &records, error)) return false;
  if (records.empty() ||
      records.front().type != WalRecordType::kCheckpoint) {
    // No durable history (no log yet, or a log with no checkpoint record —
    // which CreateFresh never produces, so effectively "no log"): serve
    // the index file as-is. The WAL stays disabled until the next Build
    // re-establishes a baseline.
    return LoadFromFile(index_path, error);
  }
  const WalRecord& checkpoint = records.front();
  DiGraph base = DiGraph::FromEdges(checkpoint.num_vertices,
                                    checkpoint.edges);
  // Epochs that rolled back post-append: their batch records are durable
  // but their effects never served — replay must skip them.
  std::vector<std::pair<uint64_t, uint64_t>> rolled_back;
  for (const WalRecord& record : records) {
    if (record.type == WalRecordType::kRollback) {
      rolled_back.emplace_back(record.epoch, record.epoch_last);
    }
  }
  auto was_rolled_back = [&rolled_back](uint64_t e) {
    for (const auto& [first, last] : rolled_back) {
      if (e >= first && e <= last) return true;
    }
    return false;
  };
  // The checkpoint graph already contains the reserve vertices the
  // original Build added; zero the option for the base rebuild so the
  // vertex space does not grow by another reserve, and restore it after
  // (later explicit Builds keep their configured reserve).
  //
  // The build opens the new log generation *staged* (appends go to a side
  // file; the crash-time log at wal_path is untouched): a crash anywhere
  // during the replay below just re-runs this recovery against the
  // complete pre-crash log instead of finding a checkpoint-only log whose
  // acknowledged batches are gone.
  const Vertex saved_reserve = options_.build.reserve_vertices;
  options_.build.reserve_vertices = 0;
  const bool built = BuildImpl(base, /*staged_wal=*/true);
  options_.build.reserve_vertices = saved_reserve;
  if (!built) {
    if (error) {
      *error = "recovery failed to rebuild the checkpoint base graph from '" +
               options_.wal_path + "'";
    }
    return false;
  }
  // Replay each surviving batch through the ordinary update path — the
  // recovered trajectory is the acknowledged trajectory, so the final
  // index is bit-identical to the uncrashed engine's (and each replayed
  // batch re-appends to the staged log Build just opened, re-establishing
  // the WAL as checkpoint + surviving batches).
  for (size_t i = 1; i < records.size(); ++i) {
    const WalRecord& record = records[i];
    if (record.type != WalRecordType::kBatch) continue;
    if (was_rolled_back(record.epoch)) continue;
    uint64_t replay_epoch = 0;
    (void)ApplyUpdates(record.updates, nullptr, &replay_epoch);
    if (!WaitForEpoch(replay_epoch)) {
      if (error) {
        *error = "recovery failed replaying a logged batch (wal epoch " +
                 std::to_string(record.epoch) + ")";
      }
      // The staged generation is abandoned (its side file dies with the
      // handle); disable the WAL rather than keep acknowledging against a
      // log that will never be published.
      MutexLock lock(update_mu_);
      wal_.reset();
      return false;
    }
  }
  // Publish the replayed generation: only now may the crash-time log be
  // replaced — the recovered state is fully durable in the staged file.
  MutexLock lock(update_mu_);
  if (wal_ && !wal_->Finalize(error)) {
    wal_.reset();
    return false;
  }
  return true;
}

}  // namespace csc
