#include "serving/engine.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "core/label_patch.h"
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
  // The slicing predicate moves into update_mu_-guarded state: the rebuild
  // worker reads it off-thread, so it cannot live in plain options_ once
  // set_slice_keep can replace it mid-flight.
  slice_keep_ = std::move(options_.slice_keep);
  active_ = MakeFresh();
}

Engine::~Engine() {
  // Queued landing tasks touch graph_/active_; finish them while the
  // members are still alive.
  land_worker_.reset();
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
  // A queued async landing captures the pre-Build graph; let it resolve
  // before the graph and snapshot are replaced under it, and hold off any
  // later one until they are.
  Drain();
  MutexLock land(land_mu_);
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
  // Incremental repair ("csc" always, the other patchable forms when
  // repair is enabled): build one shadow CscIndex under a pinned ordering
  // and derive the serving form from its two stored label sets — one
  // labeling construction total, and later batches can land as bounded
  // label patches against snapshots whose ranks never drift.
  bool repair = (options_.repair.enabled || options_.backend == "csc") &&
                next->supports_label_patch();
  std::unique_ptr<CscIndex> shadow;
  VertexOrdering pinned;
  if (repair) {
    try {
      // The backend's own Build uses this ordering, so the derived payload
      // is bit-identical to a direct build; DegreeOrdering is insensitive to
      // trailing isolated vertices, so pinning it over the shadow's graph
      // (the reserve included) keeps the same ranks.
      CscIndex::Options shadow_options;
      shadow_options.build_threads = options_.build_threads;
      shadow_options.reserve_vertices = options_.reserve_vertices;
      shadow = std::make_unique<CscIndex>(
          CscIndex::Build(graph, DegreeOrdering(graph), shadow_options));
      pinned = DegreeOrdering(shadow->graph());
      if (!next->DeriveFrom(*shadow)) {
        shadow.reset();
        repair = false;
      }
    } catch (...) {
      shadow.reset();
      repair = false;
    }
  }
  if (!repair) {
    next->Build(graph, {options_.reserve_vertices, options_.build_threads});
  }
  // A backend that did not materialize the requested vertex space (graph
  // plus reserve) must not become the active snapshot; keep serving the
  // previous one.
  if (next->num_vertices() !=
      graph.num_vertices() + options_.reserve_vertices) {
    return false;
  }
  bool sliced = false;
  if (slice_keep) sliced = next->SliceLabels(slice_keep);
  // The retained graph carries the reserve, so admission accepts exactly
  // the vertex space the snapshot serves. Copied after the build, so the
  // copy does not add to the build's peak memory.
  DiGraph retained = graph;
  retained.AddVertices(options_.reserve_vertices);
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
  if (!options_.wal_path.empty()) {
    fresh_wal = staged_wal ? Wal::CreateStaged(options_.wal_path, retained)
                           : Wal::CreateFresh(options_.wal_path, retained);
    if (!fresh_wal) return false;
  }
  {
    MutexLock lock(update_mu_);
    has_graph_ = true;
    graph_ = std::move(retained);
    wal_ = std::move(fresh_wal);
    repair_active_ = repair;
    shadow_ = repair ? std::move(shadow) : nullptr;
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

// Commits a freshly loaded index: no graph is retained (updates report
// kNoGraph until Build), and the configured slice applies to loads exactly
// as it does to builds.
void Engine::AdoptLoaded(std::shared_ptr<CycleIndex> next) {
  Drain();
  MutexLock land(land_mu_);
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
  // The snapshot is read through a raw pointer inside the read section:
  // no shared_ptr copy, so concurrent readers write nothing but their own
  // lock stripe.
  ReaderMutexLock lock(query_mu_);
  const CycleIndex* index = active_.get();
  if (index == nullptr) return {};
  return {index->CountShortestCycles(v), QueryStatus::kOk};
}

BatchQueryResult Engine::BatchQuery(const std::vector<Vertex>& vertices,
                                    const QueryOptions& options) {
  const size_t n = vertices.size();
  BatchQueryResult result;
  result.counts.assign(n, CycleCount{});
  result.answered.assign(n, 0);
  // Pinned for the whole batch: a swap mid-scan retires the snapshot but
  // cannot free it, so every answer comes from one index. A published
  // snapshot never changes, so the scan runs outside the read section and
  // a swap never waits for a sweep.
  const std::shared_ptr<CycleIndex> index = snapshot();
  if (!index) {
    // No index answers every vertex with an empty count — a complete (if
    // vacuous) answer, not a timeout.
    std::fill(result.answered.begin(), result.answered.end(), char{1});
    result.completed = n;
    return result;
  }
  const bool parallel = pool_.num_threads() > 1 && n > options_.batch_grain;
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
    run(begin, end);
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

std::shared_ptr<CycleIndex> Engine::Rebuild(
    const DiGraph& graph,
    const std::function<bool(Vertex)>& slice_keep) const {
  // A throwing build (e.g. std::bad_alloc, or a staging-task exception
  // rethrown by ThreadPool::Wait under build_threads) must surface as a
  // failed rebuild, not an exception: the lander rolls back on nullptr, and
  // on the async worker a throw would escape the SerialWorker task and
  // terminate the process. The failpoint sits inside the guard so its
  // throw action injects the throwing variant too.
  try {
    if (CSC_FAILPOINT("engine.rebuild")) return nullptr;
    std::shared_ptr<CycleIndex> next = MakeFresh();
    if (!next) return nullptr;
    // graph_ already carries the reserved vertices from Build; reserving
    // again on every rebuild would grow the vertex space without bound.
    next->Build(graph, {/*reserve_vertices=*/0, options_.build_threads});
    if (next->num_vertices() != graph.num_vertices()) return nullptr;
    if (slice_keep) next->SliceLabels(slice_keep);
    return next;
  } catch (...) {
    return nullptr;
  }
}

std::shared_ptr<CycleIndex> Engine::LandRepair(
    const std::vector<EdgeUpdate>& ops,
    const std::function<bool(Vertex)>& slice_keep, RepairStats* stats,
    bool* shadow_touched) {
  *shadow_touched = false;
  try {
    // Injected before any shadow mutation: the ordinary graph undo is a
    // complete rollback.
    if (CSC_FAILPOINT("engine.patch")) return nullptr;
    if (!shadow_) return nullptr;
    *shadow_touched = true;
    dirty_.Reset();
    // rebuild_threshold stays kDefaultRebuildThreshold: past it the shadow
    // is rebuilt under the pinned ordering and the snapshot derived.
    // Minimality, whatever the build options: decremental repair
    // (RemoveEdge) needs a minimal index, and only minimality maintenance
    // keeps it minimal from batch to batch.
    BatchOptions batch_options;
    batch_options.strategy = MaintenanceStrategy::kMinimality;
    batch_options.pinned_order = &pinned_order_;
    batch_options.dirty = &dirty_;
    BatchResult result = csc::ApplyUpdates(*shadow_, ops, batch_options);
    if (!result.rebuilt) {
      LabelPatch patch = ExtractLabelPatch(*shadow_, dirty_);
      if (snapshot_sliced_ && slice_keep) {
        // A sliced snapshot holds only owned runs; patches must not smuggle
        // unowned labels back in.
        auto drop_unowned =
            [&slice_keep](std::vector<std::pair<Vertex, LabelSet>>& runs) {
              std::erase_if(runs, [&slice_keep](const auto& run) {
                return !slice_keep(run.first);
              });
            };
        drop_unowned(patch.in_runs);
        drop_unowned(patch.out_runs);
      }
      // Only the lander (under land_mu_) swaps snapshots, so the current
      // one is exactly the pre-batch state the patch applies to.
      std::shared_ptr<CycleIndex> current = snapshot();
      if (current) {
        if (std::unique_ptr<CycleIndex> clone =
                current->ApplyLabelPatch(patch)) {
          stats->hubs_repaired += patch.RunCount();
          stats->label_bytes += patch.LabelBytes();
          ++stats->patches;
          return clone;
        }
      }
    }
    // Shadow rebuilt or unpatchable snapshot: derive a full snapshot from
    // the shadow's labeling — one encode pass, still no BFS.
    std::shared_ptr<CycleIndex> next = MakeFresh();
    if (!next || !next->DeriveFrom(*shadow_)) return nullptr;
    snapshot_sliced_ = slice_keep && next->SliceLabels(slice_keep);
    ++stats->rebuilds;
    return next;
  } catch (...) {
    return nullptr;
  }
}

void Engine::RestoreShadowLocked() {
  if (!repair_active_ || !shadow_) return;
  try {
    // graph_ has already been rolled back by the caller, so a rebuild under
    // the pinned ordering reproduces the exact pre-batch shadow.
    CscIndex::Options shadow_options;
    shadow_options.build_threads = options_.build_threads;
    *shadow_ = CscIndex::Build(graph_, pinned_order_, shadow_options);
  } catch (...) {
    // Can't restore the maintenance state; abandon repair for this engine.
    // Later batches fall back to rebuild-and-swap, which only needs the
    // graph.
    repair_active_ = false;
    shadow_.reset();
  }
}

void Engine::UndoLocked(const std::vector<EdgeUpdate>& ops) {
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    if (it->kind == UpdateKind::kInsert) {
      graph_.RemoveEdge(it->edge.from, it->edge.to);
    } else {
      graph_.AddEdge(it->edge.from, it->edge.to);
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

void Engine::RollBackLocked(bool shadow_touched) {
  // The failed landing covered the backlog up to its target, and any batch
  // admitted since was validated on top of that state — its verdicts are
  // void too. Undo them all in reverse admission order, restoring exactly
  // the graph the still-active snapshot answers for.
  for (auto it = unlanded_.rbegin(); it != unlanded_.rend(); ++it) {
    UndoLocked(it->ops);
  }
  const uint64_t first = unlanded_.front().epoch;
  const uint64_t last = submitted_epoch_;
  MarkFailedLocked(first, last);
  unlanded_.clear();
  pending_ops_ = 0;
  resolved_epoch_ = last;
  if (shadow_touched) RestoreShadowLocked();
  // Durable state must equal served state: without the rollback record,
  // recovery would replay batches that never served. If it cannot be
  // written, re-base the log on graph_ — now exactly what the snapshot
  // serves — and failing that, poison the handle so nothing more is
  // acknowledged until a Build or Checkpoint starts a fresh log. A staged
  // log (recovery in progress) is abandoned by the failing recovery anyway.
  if (wal_ && !wal_->AppendRollback(first, last) && !wal_->staged()) {
    std::unique_ptr<Wal> rebased = Wal::CreateFresh(options_.wal_path, graph_);
    if (rebased) {
      wal_ = std::move(rebased);
    } else {
      wal_->Poison();
    }
  }
  epoch_cv_.NotifyAll();
}

void Engine::LandEpochs() {
  MutexLock land(land_mu_);
  // 1. Take the backlog: every epoch admitted so far, as forward ops for
  // the repair path or as a copy of the graph for a rebuild.
  uint64_t target = 0;
  bool repair = false;
  std::vector<EdgeUpdate> ops;
  DiGraph graph;
  std::function<bool(Vertex)> slice_keep;
  {
    MutexLock lock(update_mu_);
    // An earlier landing already covered every admitted epoch (the
    // coalescing fast path: one queued task per batch, one landing per
    // backlog).
    if (resolved_epoch_ >= submitted_epoch_) return;
    target = submitted_epoch_;
    if (unlanded_.empty()) {
      // Every outstanding epoch failed its WAL append at admission: its
      // graph mutations are already undone and it is marked failed, so
      // there is nothing to land — resolve it so waiters wake with the
      // rollback report.
      resolved_epoch_ = target;
      epoch_cv_.NotifyAll();
      return;
    }
    repair = repair_active_;
    slice_keep = slice_keep_;
    if (repair) {
      for (const PendingBatch& batch : unlanded_) {
        ops.insert(ops.end(), batch.ops.begin(), batch.ops.end());
      }
    } else {
      graph = graph_;
    }
  }
  // 2. Build the next snapshot with update_mu_ released: admissions queue
  // up behind this landing instead of waiting for it, and readers never
  // block. One attempt: a failure rolls the backlog back below.
  RepairStats stats;
  bool shadow_touched = false;
  std::shared_ptr<CycleIndex> next =
      repair ? LandRepair(ops, slice_keep, &stats, &shadow_touched)
             : Rebuild(graph, slice_keep);
  // 3. Publish, then commit. The swap happens before update_mu_ is
  // retaken, so the retired snapshot is freed off the admission lock.
  const bool landed = next != nullptr;
  if (landed) Swap(std::move(next));
  MutexLock lock(update_mu_);
  repair_stats_.Accumulate(stats);
  if (!landed) {
    RollBackLocked(shadow_touched);
    return;
  }
  // Batches admitted after `target` stay queued for the next landing.
  while (!unlanded_.empty() && unlanded_.front().epoch <= target) {
    landed_epoch_ = unlanded_.front().epoch;
    pending_ops_ -= unlanded_.front().ops.size();
    unlanded_.pop_front();
  }
  resolved_epoch_ = target;
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
  size_t net = 0;
  uint64_t admitted = 0;
  bool failed = false;
  {
    MutexLock lock(update_mu_);
    // Outcomes that admit nothing hand out the newest *landed* epoch: it is
    // already resolved and never a rolled-back one, so WaitForEpoch on it
    // reports true instead of inheriting an earlier batch's failure.
    if (epoch) *epoch = landed_epoch_;
    if (!AdmitLocked(lock, updates.size(), deadline)) {
      if (verdicts) {
        verdicts->assign(updates.size(), UpdateVerdict::kOverloaded);
      }
      return 0;
    }
    // Admission only queues: mutate the retained graph, log the batch, and
    // push it for the lander.
    if (!has_graph_) {
      if (verdicts) verdicts->assign(updates.size(), UpdateVerdict::kNoGraph);
      return 0;
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
    net = NetEffectVerdicts(updates, success, verdicts);
    // Either nothing changed, or every change cancelled within the batch:
    // the graph is back to the state the snapshot answers for, so there is
    // nothing to land (and no new epoch to hand out).
    if (net == 0) return 0;
    admitted = ++submitted_epoch_;
    if (epoch) *epoch = admitted;
    std::vector<EdgeUpdate> ops = SuccessfulOps(updates, success);
    // Durability before acknowledgment: the batch record must be on stable
    // storage before this call returns an epoch the caller may treat as
    // admitted. A failed append undoes the graph mutations and rejects the
    // batch — nothing to replay, nothing acknowledged; the lander resolves
    // the failed epoch in order.
    if (wal_ && !wal_->AppendBatch(admitted, ops)) {
      UndoLocked(ops);
      MarkFailedLocked(admitted, admitted);
      failed = true;
    } else {
      pending_ops_ += ops.size();
      unlanded_.push_back({admitted, std::move(ops)});
      peak_pending_batches_ =
          std::max<uint64_t>(peak_pending_batches_, unlanded_.size());
      peak_pending_ops_ = std::max(peak_pending_ops_, pending_ops_);
    }
    if (options_.async_updates) {
      if (!land_worker_) land_worker_ = std::make_unique<SerialWorker>();
      land_worker_->Submit([this] {
        // The async path's injectable wedge/crash site: a delay action
        // stalls the worker (what the WaitForEpoch deadline overload is
        // for), an abort action crashes mid-flight with admitted but
        // unlanded epochs in the WAL.
        (void)CSC_FAILPOINT("engine.async_rebuild");
        LandEpochs();
      });
    }
  }
  if (!options_.async_updates) {
    // A synchronous write is the same admission with the lander run inline;
    // its outcome is known on return.
    LandEpochs();
    MutexLock lock(update_mu_);
    failed = IsFailedLocked(admitted);
  }
  if (failed) {
    if (verdicts) verdicts->assign(updates.size(), UpdateVerdict::kRejected);
    return 0;
  }
  return net;
}

bool Engine::WaitForEpoch(uint64_t epoch) {
  MutexLock lock(update_mu_);
  while (resolved_epoch_ < epoch) epoch_cv_.Wait(lock);
  return !IsFailedLocked(epoch);
}

WaitStatus Engine::WaitForEpoch(uint64_t epoch,
                                std::chrono::milliseconds timeout) {
  const Deadline deadline = Deadline::After(timeout);
  MutexLock lock(update_mu_);
  while (resolved_epoch_ < epoch) {
    if (deadline.expired()) return WaitStatus::kTimeout;
    WaitLocked(lock, deadline);
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
    WaitLocked(lock, deadline);
  }
  // kLanded here means "every admitted epoch resolved", not "every batch
  // succeeded" — individual rollbacks are reported per-epoch by
  // WaitForEpoch. A drain itself never reports kRolledBack.
  return WaitStatus::kLanded;
}

bool Engine::AdmitProbe(size_t ops, const Deadline& deadline) {
  MutexLock lock(update_mu_);
  return AdmitLocked(lock, ops, deadline);
}

bool Engine::AdmitLocked(MutexLock& lock, size_t ops,
                         const Deadline& deadline) {
  // Draining sheds every write at the door so the admitted backlog can
  // land and quiesce. The failpoint's error action
  // is a deterministic shed; its delay action stalls the decision itself.
  bool admit = !draining_ && !CSC_FAILPOINT("admission.delay");
  bool waited = false;
  while (admit && BacklogFullLocked(ops)) {
    if (!options_.admission.block_on_full || deadline.expired()) {
      admit = false;
      break;
    }
    waited = true;
    WaitLocked(lock, deadline);
    admit = !draining_;
  }
  if (!admit) {
    ++shed_batches_;
    return false;
  }
  if (waited) ++blocked_admissions_;
  return true;
}

void Engine::WaitLocked(MutexLock& lock, const Deadline& deadline) {
  // An unbounded wait must not go through WaitFor: the standard library's
  // wait_for(milliseconds::max()) overflows the clock the same way.
  if (deadline.unbounded()) {
    epoch_cv_.Wait(lock);
  } else {
    (void)epoch_cv_.WaitFor(lock, deadline.remaining());
  }
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
  // Overloaded means "new writes would shed": probe with the smallest
  // write, one op, so an ops cap already at its limit counts.
  if (options_.async_updates && BacklogFullLocked(1)) {
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
  return repair_stats_;
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
  const Vertex saved_reserve = options_.reserve_vertices;
  options_.reserve_vertices = 0;
  const bool built = BuildImpl(base, /*staged_wal=*/true);
  options_.reserve_vertices = saved_reserve;
  if (!built) {
    if (error) {
      *error = "recovery failed to rebuild the checkpoint base graph from '" +
               options_.wal_path + "'";
    }
    return false;
  }
  // Replay each surviving batch through the ordinary update path — the
  // recovered trajectory is the acknowledged trajectory, so the final
  // index answers every query as the uncrashed engine's does (its bytes
  // can differ after a Checkpoint for a repairing engine: the base above
  // is built under the checkpoint graph's degree ordering, not the one the
  // uncrashed engine pinned at its Build; see the header). Each replayed
  // batch re-appends to the staged log Build just opened, re-establishing
  // the WAL as checkpoint + surviving batches.
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
