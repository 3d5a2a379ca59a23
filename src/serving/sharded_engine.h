#ifndef CSC_SERVING_SHARDED_ENGINE_H_
#define CSC_SERVING_SHARDED_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cycle_index.h"
#include "csc/screening.h"
#include "dynamic/edge_update.h"
#include "serving/admission.h"
#include "serving/engine.h"
#include "util/lifetime_annotations.h"
#include "util/thread_pool.h"

namespace csc {

struct GirthInfo;           // csc/girth.h
class IndexFile;            // csc/index_io.h
struct ShardedBundleInfo;   // csc/index_io.h

/// Maps a vertex to its owning shard. Must be pure, total over
/// [0, num_vertices), and return values in [0, num_shards).
using ShardFn =
    std::function<uint32_t(Vertex v, uint32_t num_shards, Vertex num_vertices)>;

/// The default partitioner: K contiguous, near-equal vertex ranges (the
/// natural layout for the flat LabelArena forms, whose runs are laid out in
/// vertex order).
uint32_t ContiguousRangeShard(Vertex v, uint32_t num_shards,
                              Vertex num_vertices);

/// Metering for the exact-BFS fallback serving quarantined shards (see
/// ShardedEngineOptions::tolerate_faults): the fallback is an amplifier —
/// one degraded shard turns cheap label joins into whole-graph BFS — so
/// queries with a bounded deadline reach it through a circuit breaker plus
/// a concurrency gate, and shed (QueryStatus::kShed) instead of melting the
/// box. A query with an unbounded deadline has no budget to protect: it is
/// counted in DegradedStats::fallback_queries but otherwise unmetered.
struct DegradedServingOptions {
  /// Max BFS fallback answers in flight at once; 0 = unmetered. A query
  /// that finds the gate full is shed (and counts a breaker failure).
  uint32_t max_concurrent_fallbacks = 0;
  /// Breaker over the fallback path: deadline misses and gate rejections
  /// count as failures; once open, degraded queries shed cheaply until a
  /// cooldown probe succeeds.
  CircuitBreakerOptions breaker;
};

struct ShardedEngineOptions {
  /// Registry name of the backend every shard serves.
  std::string backend = kDefaultBackendName;
  /// Number of per-shard Engine instances; 0 is coerced to 1.
  uint32_t num_shards = 1;
  /// Router threads fanning work across shards; 0 = one per shard.
  unsigned num_threads = 0;
  /// Worker threads inside each shard's Engine; 0 divides
  /// ThreadPool::DefaultThreadCount() across the shards.
  unsigned shard_threads = 0;
  /// Vertices per parallel batch chunk inside each shard Engine.
  size_t batch_grain = 256;
  /// Forwarded to every shard Engine (EngineOptions::reserve_vertices); the
  /// reserved vertices are partitioned across the shards like any other.
  Vertex reserve_vertices = 0;
  /// Forwarded to every shard Engine (EngineOptions::build_threads): each
  /// shard's builds and rebuilds use the rank-batched parallel builder with
  /// this many workers. Per-shard builds already overlap on the router pool, so
  /// K shards x build_threads workers can be in flight during Build; size
  /// accordingly.
  unsigned build_threads = 0;
  /// Vertex -> owning shard; empty = ContiguousRangeShard.
  ShardFn shard_fn;
  /// Slice each shard's label storage down to its owned runs after Build /
  /// load / rebuild: per-shard resident labels drop to ~n/K while every
  /// routed query stays bit-identical (queries only ever read the queried
  /// vertex's runs, and those live on the owner). Only arena-backed
  /// backends ("csc", "frozen") can slice; others serve the full closure as
  /// before. A bundle saved from sliced shards must be reloaded
  /// with the same shard count and shard_fn — the bundle records both its
  /// K and whether a custom shard_fn was in use, and LoadFrom /
  /// LoadFromFile reject a mismatch instead of serving vertices whose runs
  /// were sliced away as "no cycle" (re-partitioning requires the graph).
  bool slice_labels = false;
  /// Forwarded to every shard Engine (EngineOptions::async_updates):
  /// ApplyUpdates returns after validating the batch and mutating the K
  /// retained graphs; the per-shard rebuild workers land the K snapshot
  /// swaps asynchronously. Use WaitForEpochs / Drain for read-your-writes.
  bool async_updates = false;
  /// Forwarded to every shard Engine (EngineOptions::repair): batches land as
  /// label patches against each shard's sliced snapshot instead of K
  /// full rebuilds. Note each shard keeps a full (unsliced) shadow CscIndex for
  /// maintenance, so repair trades ~K x shadow memory for patch-speed updates;
  /// see the README's serving section.
  RepairOptions repair;
  /// Forwarded to every shard Engine (EngineOptions::admission): caps each
  /// shard's async update backlog. Admission across the K-shard fan-out is
  /// all-or-nothing — one full shard sheds the whole batch — so the
  /// deployment never ends up with a batch applied on some shards only.
  AdmissionOptions admission;
  /// Metering for the BFS fallback on quarantined shards.
  DegradedServingOptions degraded;
  /// Tolerate per-shard faults at load (LoadFrom / LoadFromFile /
  /// LoadFromMapping): a shard whose payload fails its CRC or does not
  /// restore is *quarantined* — the load succeeds, the healthy shards
  /// serve normally, and the quarantined shard serves degraded (see
  /// ShardState; SetFallbackGraph upgrades quarantined shards to correct
  /// BFS answers). Default false: any bad shard fails the whole load, as
  /// before. Degraded deployments are read-only — ApplyUpdates rejects
  /// batches until every shard is healthy again (ReloadShard).
  bool tolerate_faults = false;
};

/// Health of one shard of the serving tier.
enum class ShardState : uint8_t {
  /// Serving exact answers from its index.
  kHealthy = 0,
  /// Quarantined (index unavailable) but serving exact answers through the
  /// BFS baseline over the fallback graph (SetFallbackGraph) — correct,
  /// just slow.
  kDegraded,
  /// Quarantined with no fallback graph: owned vertices answer empty
  /// (count 0) and QueryWithStatus reports the state so callers can tell
  /// "no cycle" from "shard down".
  kQuarantined,
};

/// A routed query answer plus how it was served (QueryWithStatus): callers
/// that must distinguish an exact "no cycle" from a quarantined shard's
/// placeholder check `served_by`.
struct ShardedQueryResult {
  CycleCount count;
  ShardState served_by = ShardState::kHealthy;
  /// kOk unless a bounded deadline timed out (kTimeout) or the
  /// degraded-path breaker/gate refused the work (kShed). An unbounded
  /// deadline — the budget-free overload, or QueryOptions{} — always
  /// reports kOk: a degraded owner then answers by exact, unmetered BFS.
  QueryStatus status = QueryStatus::kOk;
};

/// Deadline'd screening sweep outcome: the ranked survivor set over the
/// vertices the sweep answered before the budget ran out (`scanned` of
/// num_vertices()), with the usual typed status.
struct ScreenResult {
  std::vector<ScreeningHit> hits;
  Vertex scanned = 0;
  QueryStatus status = QueryStatus::kOk;
};

/// Degraded-path metering counters (see DegradedServingOptions).
struct DegradedStats {
  uint64_t fallback_queries = 0;   ///< queries routed to the BFS fallback
  uint64_t fallback_shed = 0;      ///< refused by the breaker or the gate
  uint64_t fallback_timeouts = 0;  ///< fallback answers past their deadline
  uint64_t breaker_transitions = 0;
  CircuitBreaker::State breaker_state = CircuitBreaker::State::kClosed;
};

/// Per-shard slice of ShardedEngine::Stats().
struct ShardInfo {
  uint32_t shard = 0;
  /// Vertices this shard owns (answers queries for).
  Vertex owned_vertices = 0;
  /// Edges with both endpoints owned by this shard.
  uint64_t internal_edges = 0;
  /// Edges owned here (source owned) whose target lives on another shard.
  uint64_t cross_shard_edges = 0;
  BackendStats backend;
  ShardState state = ShardState::kHealthy;
  /// Why the shard was quarantined (empty when healthy).
  std::string fault;
};

/// The sharded serving tier: the vertex space is partitioned across K
/// per-shard Engine instances, per-vertex queries are routed to the owner,
/// and whole-graph sweeps (QueryAll / Girth / screening) are decomposed
/// into K owned-range sweeps that run concurrently and merge exactly; girth
/// and screening fold the merged sweep through ComputeGirth and
/// TopKByCycleCount, as a single Engine does. Answers are bit-identical to
/// a single Engine on the same graph for every shard count.
///
/// Each query kind has one body, its QueryOptions overload; the
/// budget-free form forwards to it with an unbounded deadline.
///
/// Ownership rule: vertex v is owned by shard_fn(v); edge (u, v) is owned
/// by the shard owning u, which is where the edge is accounted (update
/// verdicts, cross-shard stats). Because a shortest cycle can traverse any
/// part of the graph, each shard's induced subgraph is transitively closed
/// over everything its owned cycles can touch — i.e. every shard indexes
/// the full edge set (cross-shard edges included) so its answers for owned
/// vertices stay exact. Sharding therefore partitions *work* (sweeps split
/// K ways, routed queries hit disjoint engines with independent locks and
/// pools); with `slice_labels` the *storage* is partitioned too — each
/// shard's label arenas are cut to its owned runs after build, since a
/// routed query only ever reads the queried vertex's runs.
///
/// Updates: every shard must observe every edge update (an edge anywhere can
/// change any vertex's count), so ApplyUpdates groups the batch by owning shard
/// for accounting, then applies the full ordered batch on all shards
/// concurrently; the aggregate "applied" count is taken from each update's
/// owning shard. Each shard lands the batch on its own lander — a §V repair
/// or a rebuild-and-swap, all K landings in parallel — or, with
/// ShardedEngineOptions::async_updates, off the writer thread entirely:
/// ApplyUpdates returns after the K validations and the rebuild workers land
/// the swaps behind epoch tokens (WaitForEpochs / Drain).
///
/// Concurrency contract: queries and sweeps may run concurrently with one
/// ApplyUpdates writer (each shard's Engine swaps snapshots under its own
/// locks). Build and LoadFrom, however, replace the shard engines and the
/// ownership tables themselves and require exclusive access — quiesce all
/// readers before calling them (unlike Engine, whose snapshot indirection
/// lets Build/LoadFrom overlap reads).
class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options = {});

  /// False if the backend name is unknown (no shard engine is usable).
  bool valid() const;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  const std::string& backend_name() const CSC_LIFETIME_BOUND {
    return options_.backend;
  }

  /// The shard owning vertex `v` (undefined for v >= num_vertices()).
  uint32_t ShardOf(Vertex v) const;

  /// Builds all K shard engines from `graph`, concurrently.
  bool Build(const DiGraph& graph);

  /// Restores from a multi-shard bundle (WrapShardedPayload). The bundle's
  /// shard count is adopted — engines are re-created to match it — except
  /// that a bundle saved from label-sliced shards is only accepted under a
  /// compatible partition: its recorded K must match the configured
  /// num_shards (when one was configured, i.e. > 1) and its recorded
  /// custom-shard_fn bit must match whether this engine has one. A
  /// mismatch fails the load with `error` describing it (when non-null)
  /// instead of silently answering "no cycle" for every vertex whose runs
  /// were sliced onto a differently-partitioned shard. As with
  /// Engine::LoadFrom, updates are unavailable afterwards.
  bool LoadFrom(const std::string& bytes, std::string* error = nullptr);

  /// Restores from a multi-shard bundle file, all K shard engines viewing
  /// one shared read-only mapping (csc/index_io.h IndexFile): the arena
  /// payloads are never copied and the file pages are paid for once, not
  /// K times. Same semantics as LoadFrom otherwise (bundle shard count
  /// adopted, exclusive access required, static updates unavailable).
  /// False with `error` set (when non-null) on I/O / verification /
  /// format failure.
  bool LoadFromFile(const std::string& path, std::string* error = nullptr);

  /// As LoadFromFile over an already-opened (and therefore already
  /// CRC-verified) mapping — callers that route on the payload themselves
  /// (the CLI) avoid mapping and verifying the file twice.
  bool LoadFromMapping(const std::shared_ptr<IndexFile>& file,
                       std::string* error = nullptr);

  /// Serializes all shards into one multi-shard bundle (each shard payload
  /// individually checksummed). False if the backend cannot save.
  bool SaveTo(std::string& bytes) const;

  /// SCCnt(v), routed to the owning shard. A degraded owner answers via
  /// the BFS fallback; a quarantined owner answers empty — use
  /// QueryWithStatus to tell the difference.
  CycleCount Query(Vertex v);

  /// As Query, also reporting the serving state of the owning shard.
  ShardedQueryResult QueryWithStatus(Vertex v);

  /// Deadline'd routed query. A healthy owner answers within the budget or
  /// reports kTimeout; a degraded owner's BFS fallback is metered under a
  /// bounded deadline — breaker open or gate full reports kShed with an
  /// empty count. An unbounded deadline skips the metering: the exact BFS
  /// answer with kOk.
  ShardedQueryResult QueryWithStatus(Vertex v, const QueryOptions& options);

  /// Batched SCCnt, positionally aligned with `vertices`; the batch is
  /// split by owner and the per-shard sub-batches run concurrently.
  std::vector<CycleCount> BatchQuery(const std::vector<Vertex>& vertices);

  /// SCCnt for every vertex: each shard sweeps its owned range in parallel.
  std::vector<CycleCount> QueryAll();

  /// Girth folded over QueryAll.
  GirthInfo Girth();

  /// The screening sweep: QueryAll ranked by TopKByCycleCount.
  std::vector<ScreeningHit> Screen(Dist max_cycle_length, size_t top_k);

  // --- Deadline'd sweeps. One caller deadline is shared across the K-shard
  // fan-out (each shard checks the same absolute budget, the way
  // WaitForEpochs shares one timeout): the caller's bound holds no matter
  // how many shards are slow. Partial results carry per-vertex `answered`
  // masks — unlike the single-Engine overloads the answered set need not be
  // a prefix, because shards sweep their owned ranges concurrently.

  /// Deadline'd BatchQuery; `answered[i]` marks positions answered in
  /// budget, `completed` counts them.
  BatchQueryResult BatchQuery(const std::vector<Vertex>& vertices,
                              const QueryOptions& options);

  /// Deadline'd full sweep over [0, num_vertices()).
  BatchQueryResult QueryAll(const QueryOptions& options);

  /// Deadline'd girth: ComputeGirth over the deadline'd QueryAll, reading
  /// unanswered vertices as empty (`scanned` of num_vertices() answered);
  /// kOk means the sweep completed and `info` equals the budget-free
  /// Girth() answer.
  GirthResult Girth(const QueryOptions& options);

  /// Deadline'd screening sweep (see ScreenResult).
  ScreenResult Screen(Dist max_cycle_length, size_t top_k,
                      const QueryOptions& options);

  /// Applies the batch on every shard (concurrently); returns the batch's
  /// net-applied count according to each update's owning shard. With
  /// `async_updates` the call returns once every shard has validated the
  /// batch and mutated its retained graph — the K rebuilds land
  /// asynchronously. When `epochs` is non-null it is resized to
  /// num_shards() with each shard's epoch token for this batch; pass it to
  /// WaitForEpochs (or call Drain) for read-your-writes.
  size_t ApplyUpdates(const std::vector<EdgeUpdate>& updates,
                      std::vector<uint64_t>* epochs = nullptr);

  /// Deadline'd form with all-or-nothing admission: every shard is probed
  /// (blocking up to the shared deadline when admission.block_on_full is
  /// set) before any shard mutates — a batch shed by one shard is shed by
  /// all of them, returning 0 with `epochs` zeroed, so the K replicas never
  /// diverge on which batches they observed.
  size_t ApplyUpdates(const std::vector<EdgeUpdate>& updates,
                      const Deadline& deadline,
                      std::vector<uint64_t>* epochs = nullptr);

  /// Blocks until every shard has resolved its epoch from one ApplyUpdates
  /// call (as returned through `epochs`). True iff every shard landed its
  /// batch; false if any shard rolled it back (failed rebuild) or the
  /// vector does not match the shard count.
  [[nodiscard]] bool WaitForEpochs(const std::vector<uint64_t>& epochs);

  /// Deadline form: one shared deadline across all K waits (not per-shard
  /// — the slow path is one stuck shard, and K stacked timeouts would wait
  /// K times longer than asked). kTimeout as soon as the deadline passes
  /// with any shard unresolved; otherwise kRolledBack if any shard rolled
  /// its batch back (also returned for a size-mismatched vector), else
  /// kLanded.
  [[nodiscard]] WaitStatus WaitForEpochs(const std::vector<uint64_t>& epochs,
                                         std::chrono::milliseconds timeout);

  /// Blocks until every update admitted so far has resolved on every shard
  /// — the coarse read-your-writes barrier of the async mode.
  void Drain();

  /// Deadline'd drain: one shared budget across the K sequential waits.
  /// kTimeout as soon as the budget passes with any shard unresolved.
  [[nodiscard]] WaitStatus Drain(std::chrono::milliseconds timeout);

  /// Deployment health, merged across shards: kDraining if any shard is
  /// draining, else kOverloaded if any shard's backlog is at its cap, else
  /// kDegraded if any shard is quarantined/degraded or the fallback
  /// breaker is not closed, else kStarting if any shard has no committed
  /// index yet, else kHealthy.
  HealthState Health() const;

  /// Starts a graceful drain on every shard: new writes shed with
  /// kOverloaded while the already-admitted backlog lands. False if a
  /// drain was already in progress on every shard.
  bool BeginDrain();

  /// Lands the admitted backlog, quiesces in-flight queries on every
  /// shard, and reopens writes (see Engine::FinishDrain).
  void FinishDrain();

  /// Admission/overload counters summed across shards (summed peaks are an
  /// upper bound — per-shard peaks need not coincide in time).
  AdmissionStats AdmissionStatsTotal() const;

  /// Degraded-path (BFS fallback) metering counters.
  DegradedStats degraded_stats() const;

  Vertex num_vertices() const { return num_vertices_; }

  /// Sum of the shard engines' resident footprints.
  uint64_t MemoryBytes() const;

  /// Per-shard ownership and backend stats (edge counts are populated by
  /// Build; zero after LoadFrom, which retains no graph).
  std::vector<ShardInfo> Stats() const;

  /// Repair-vs-rebuild decision counters summed across shards (see
  /// Engine::repair_stats). All zeros when repair is disabled.
  RepairStats RepairStatsTotal() const;

  /// Direct access to one shard's Engine (tests, per-shard reporting).
  Engine& shard(uint32_t s) CSC_LIFETIME_BOUND { return *shards_[s]; }
  const Engine& shard(uint32_t s) const CSC_LIFETIME_BOUND {
    return *shards_[s];
  }

  // --- Degraded-mode serving (see ShardedEngineOptions::tolerate_faults).

  /// Health of shard `s` (undefined for s >= num_shards()).
  ShardState shard_state(uint32_t s) const { return shard_state_[s]; }
  /// Why shard `s` was quarantined; empty when healthy.
  const std::string& shard_fault(uint32_t s) const CSC_LIFETIME_BOUND {
    return shard_fault_[s];
  }
  /// True when any shard is not serving from its index.
  bool degraded() const;

  /// Installs the graph quarantined shards fall back to: their owned
  /// vertices switch from empty placeholder answers (kQuarantined) to
  /// exact BFS answers (kDegraded). The graph must be the one the bundle
  /// was built from for the answers to match the lost index.
  void SetFallbackGraph(DiGraph graph);

  /// Re-restores shard `s` (typically quarantined) from the bundle at
  /// `path` — the online repair path after the file is fixed or replaced.
  /// Only shard `s`'s payload must verify; the bundle must carry the same
  /// shard count and vertex domain as the running deployment. On success
  /// the shard is swapped in and marked healthy. Same exclusive-access
  /// contract as LoadFrom: quiesce readers first.
  bool ReloadShard(uint32_t s, const std::string& path,
                   std::string* error = nullptr);

 private:
  /// Runs body(s) for every shard on the router pool and waits.
  void ForEachShard(const std::function<void(uint32_t)>& body);
  void RecomputeOwnership();
  /// The per-shard EngineOptions for a K-shard deployment (thread budget
  /// divided across the shards).
  EngineOptions ShardEngineOptions(uint32_t num_shards) const;
  /// False (with `error` set when non-null) when a bundle's recorded
  /// partition is incompatible with this engine's configuration — see
  /// LoadFrom.
  bool BundleCompatible(const ShardedBundleInfo& info, uint32_t bundle_shards,
                        std::string* error) const;
  /// Shard s's ownership predicate over a fixed (K, n) partition — the
  /// slice_keep handed to shard engines (self-contained, so it stays valid
  /// across later rebuilds).
  std::function<bool(Vertex)> OwnershipPredicate(uint32_t s, uint32_t shards,
                                                 Vertex n) const;
  /// Restores all shards through `load`, recreating engines to match
  /// `num_shards` (the shared tail of LoadFrom / LoadFromFile). A shard
  /// whose payload already failed verification (`parse_faults[s]`
  /// non-empty) or whose `load` fails is quarantined when
  /// `tolerate_faults` is set; otherwise it fails the whole adoption with
  /// `*error` naming the shard.
  bool AdoptShards(size_t num_shards, Vertex num_vertices,
                   const std::function<bool(Engine&, uint32_t)>& load,
                   const std::vector<std::string>* parse_faults,
                   std::string* error);
  /// Exact BFS answer (or empty placeholder) for a vertex owned by a
  /// non-healthy shard.
  CycleCount DegradedAnswer(Vertex v) const;
  /// DegradedAnswer behind the breaker, the concurrency gate, and the
  /// caller's deadline; `*status` reports how the vertex was served. An
  /// unbounded deadline bypasses the breaker and the gate (exact answer,
  /// kOk). On kShed the count is empty; on kTimeout the count is whatever
  /// the BFS produced before the budget was noticed (exact if non-empty).
  CycleCount MeteredDegradedAnswer(Vertex v, const Deadline& deadline,
                                   QueryStatus* status);
  /// BatchQuery routed through shard `s`'s serving state: a healthy shard
  /// sweeps with the budget; a degraded one meters vertex by vertex — shed
  /// vertices stay unanswered (the sweep continues), a timeout stops the
  /// sweep.
  BatchQueryResult ShardAnswers(uint32_t s,
                                const std::vector<Vertex>& vertices,
                                const QueryOptions& options);
  bool AllHealthy() const;

  ShardedEngineOptions options_;
  // Router pool: shard fan-outs run on it and on the calling thread. Behind
  // a pointer so LoadFrom can re-size it when it adopts a bundle's shard
  // count.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Engine>> shards_;
  Vertex num_vertices_ = 0;
  std::vector<std::vector<Vertex>> owned_;  // owned_[s]: sorted owned ids
  std::vector<ShardInfo> shard_info_;
  // Degraded-mode state, always sized to shards_ (all-healthy outside
  // tolerant loads). Written only by the exclusive-access entry points
  // (Build / LoadFrom / ReloadShard / SetFallbackGraph).
  std::vector<ShardState> shard_state_;
  std::vector<std::string> shard_fault_;
  std::shared_ptr<const DiGraph> fallback_graph_;
  // Degraded-path metering. Internally synchronized (serving/admission.h),
  // so reader sweeps on several threads meter through them without any
  // router-level lock; the atomics are plain counters.
  CircuitBreaker fallback_breaker_;
  AdmissionQueue fallback_gate_;
  std::atomic<uint64_t> fallback_queries_{0};
  std::atomic<uint64_t> fallback_shed_{0};
  std::atomic<uint64_t> fallback_timeouts_{0};
};

}  // namespace csc

#endif  // CSC_SERVING_SHARDED_ENGINE_H_
