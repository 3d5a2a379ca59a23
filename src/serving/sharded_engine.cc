#include "serving/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "baseline/bfs_cycle.h"
#include "csc/girth.h"
#include "csc/index_io.h"
#include "util/failpoint.h"

// Concurrency contract (why this file declares no mutexes of its own): all
// locked state lives inside the per-shard Engines, each annotated for
// Clang's thread safety analysis (serving/engine.h). The router layer only
// holds immutable-after-construction structure — `shards_`, the routing
// options, and `pool_` — plus the internally-synchronized admission
// primitives metering the degraded path (`fallback_breaker_`,
// `fallback_gate_`; serving/admission.h documents their locking). The
// single-writer entry points that DO replace router structure (Build,
// AdoptShards resizing the pool) are serialized by the same external
// single-writer contract the shard engines document. Cross-shard fan-outs
// go through ParallelFor's per-call barrier, never a shared queue, so
// reader sweeps from several threads share the pool without a pool-global
// Wait racing them.

namespace csc {

uint32_t ContiguousRangeShard(Vertex v, uint32_t num_shards,
                              Vertex num_vertices) {
  if (num_shards <= 1 || num_vertices == 0) return 0;
  Vertex per_shard = (num_vertices + num_shards - 1) / num_shards;
  return std::min(v / per_shard, num_shards - 1);
}

namespace {

/// Worst-of-two merge for fan-out statuses: a timeout anywhere outranks a
/// shed anywhere outranks ok (a caller seeing kTimeout knows the answer is
/// a partial; kShed means complete except for metered-away vertices).
QueryStatus MergeStatus(QueryStatus a, QueryStatus b) {
  if (a == QueryStatus::kTimeout || b == QueryStatus::kTimeout) {
    return QueryStatus::kTimeout;
  }
  if (a == QueryStatus::kShed || b == QueryStatus::kShed) {
    return QueryStatus::kShed;
  }
  return QueryStatus::kOk;
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(std::move(options)),
      fallback_breaker_(options_.degraded.breaker),
      fallback_gate_(
          AdmissionQueueOptions{options_.degraded.max_concurrent_fallbacks,
                                0}) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  pool_ = std::make_unique<ThreadPool>(options_.num_threads != 0
                                           ? options_.num_threads
                                           : options_.num_shards);
  EngineOptions shard_options = ShardEngineOptions(options_.num_shards);
  shards_.reserve(options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Engine>(shard_options));
  }
  shard_state_.assign(options_.num_shards, ShardState::kHealthy);
  shard_fault_.assign(options_.num_shards, std::string());
}

EngineOptions ShardedEngine::ShardEngineOptions(uint32_t num_shards) const {
  EngineOptions shard_options;
  shard_options.backend = options_.backend;
  // Divide the default worker budget across the shards so K shard engines
  // do not multiply the machine's thread count by K.
  shard_options.num_threads =
      options_.shard_threads != 0
          ? options_.shard_threads
          : std::max(1u, ThreadPool::DefaultThreadCount() / num_shards);
  shard_options.batch_grain = options_.batch_grain;
  shard_options.reserve_vertices = options_.reserve_vertices;
  shard_options.build_threads = options_.build_threads;
  shard_options.async_updates = options_.async_updates;
  shard_options.repair = options_.repair;
  shard_options.admission = options_.admission;
  return shard_options;
}

bool ShardedEngine::valid() const {
  if (shards_.empty()) return false;
  for (const auto& shard : shards_) {
    if (!shard->valid()) return false;
  }
  return true;
}

uint32_t ShardedEngine::ShardOf(Vertex v) const {
  uint32_t shard = options_.shard_fn
                       ? options_.shard_fn(v, num_shards(), num_vertices_)
                       : ContiguousRangeShard(v, num_shards(), num_vertices_);
  return std::min(shard, num_shards() - 1);
}

void ShardedEngine::ForEachShard(const std::function<void(uint32_t)>& body) {
  if (shards_.size() == 1) {
    body(0);
    return;
  }
  // ParallelFor (grain 1) rather than Submit+Wait: concurrent sweeps from
  // several reader threads share the router pool, and the pool-global Wait
  // would block on — and swap exceptions with — foreign sweeps.
  ParallelFor(*pool_, 0, shards_.size(), 1, [&body](size_t s, size_t) {
    body(static_cast<uint32_t>(s));
  });
}

void ShardedEngine::RecomputeOwnership() {
  owned_.assign(num_shards(), {});
  for (Vertex v = 0; v < num_vertices_; ++v) {
    owned_[ShardOf(v)].push_back(v);
  }
  shard_info_.assign(num_shards(), {});
  for (uint32_t s = 0; s < num_shards(); ++s) {
    shard_info_[s].shard = s;
    shard_info_[s].owned_vertices = static_cast<Vertex>(owned_[s].size());
  }
}

bool ShardedEngine::Build(const DiGraph& graph) {
  if (!valid()) return false;
  // The partition domain includes reserved vertices so queries and updates
  // addressing them route to a well-defined owner.
  num_vertices_ = graph.num_vertices() + options_.reserve_vertices;
  RecomputeOwnership();
  // Ownership accounting: an edge belongs to the shard owning its source;
  // edges whose target lives elsewhere are the cross-shard ones (they stay
  // in every shard's closure — exactness — but are accounted once, here).
  for (Vertex u = 0; u < graph.num_vertices(); ++u) {
    uint32_t owner = ShardOf(u);
    for (Vertex w : graph.OutNeighbors(u)) {
      if (ShardOf(w) == owner) {
        ++shard_info_[owner].internal_edges;
      } else {
        ++shard_info_[owner].cross_shard_edges;
      }
    }
  }
  // Shard-local storage: each shard's engine slices its label arenas to
  // the runs it owns after every build/rebuild, so per-shard resident
  // labels are ~n/K instead of the full closure replicated K times.
  if (options_.slice_labels) {
    for (uint32_t s = 0; s < num_shards(); ++s) {
      shards_[s]->set_slice_keep(
          OwnershipPredicate(s, num_shards(), num_vertices_));
    }
  }
  shard_state_.assign(num_shards(), ShardState::kHealthy);
  shard_fault_.assign(num_shards(), std::string());
  std::vector<char> ok(num_shards(), 0);
  ForEachShard([&](uint32_t s) { ok[s] = shards_[s]->Build(graph) ? 1 : 0; });
  return std::all_of(ok.begin(), ok.end(), [](char c) { return c != 0; });
}

std::function<bool(Vertex)> ShardedEngine::OwnershipPredicate(
    uint32_t s, uint32_t shards, Vertex n) const {
  // Self-contained (no reference to *this), so the predicate stays valid
  // inside shard engines across later rebuilds.
  ShardFn fn = options_.shard_fn;
  return [fn, s, shards, n](Vertex v) {
    uint32_t shard = fn ? fn(v, shards, n) : ContiguousRangeShard(v, shards, n);
    return std::min(shard, shards - 1) == s;
  };
}

bool ShardedEngine::AdoptShards(
    size_t num_shards, Vertex num_vertices,
    const std::function<bool(Engine&, uint32_t)>& load,
    const std::vector<std::string>* parse_faults, std::string* error) {
  // Adopt the bundle's shard count: re-create the engines to match, and
  // only commit once every shard payload restored cleanly — or, under
  // tolerate_faults, once every shard is either restored or quarantined.
  EngineOptions shard_options =
      ShardEngineOptions(static_cast<uint32_t>(num_shards));
  std::vector<std::unique_ptr<Engine>> next;
  next.reserve(num_shards);
  std::vector<ShardState> next_state(num_shards, ShardState::kHealthy);
  std::vector<std::string> next_fault(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    auto engine = std::make_unique<Engine>(shard_options);
    if (options_.slice_labels) {
      engine->set_slice_keep(OwnershipPredicate(
          s, static_cast<uint32_t>(num_shards), num_vertices));
    }
    std::string fault;
    if (parse_faults && !(*parse_faults)[s].empty()) {
      fault = (*parse_faults)[s];
    } else if (CSC_FAILPOINT("sharded.load_shard")) {
      fault = "injected fault (failpoint sharded.load_shard)";
    } else if (!load(*engine, s)) {
      fault = "payload does not restore into backend '" + options_.backend +
              "'";
    } else if (engine->num_vertices() != num_vertices) {
      fault = "restored vertex domain " +
              std::to_string(engine->num_vertices()) +
              " does not match the bundle's " + std::to_string(num_vertices);
    }
    if (!fault.empty()) {
      if (!options_.tolerate_faults) {
        if (error && error->empty()) {
          *error = "shard " + std::to_string(s) + ": " + fault;
        }
        return false;
      }
      // Quarantine: an empty engine holds the slot; queries route around
      // it (DegradedAnswer) until ReloadShard restores it.
      next_state[s] = fallback_graph_ ? ShardState::kDegraded
                                      : ShardState::kQuarantined;
      next_fault[s] = std::move(fault);
    }
    next.push_back(std::move(engine));
  }
  shards_ = std::move(next);
  shard_state_ = std::move(next_state);
  shard_fault_ = std::move(next_fault);
  // Adopting a different shard count re-sizes the router pool too, so the
  // fan-out stays one concurrent task per shard (loads require exclusive
  // access, so swapping the pool here is safe).
  uint32_t adopted = static_cast<uint32_t>(shards_.size());
  if (options_.num_threads == 0 && adopted != options_.num_shards) {
    pool_ = std::make_unique<ThreadPool>(adopted);
  }
  options_.num_shards = adopted;
  num_vertices_ = num_vertices;
  RecomputeOwnership();  // edge stats stay zero: no graph is retained
  return true;
}

bool ShardedEngine::BundleCompatible(const ShardedBundleInfo& info,
                                     uint32_t bundle_shards,
                                     std::string* error) const {
  if (!info.sliced) return true;  // full-closure shards serve under any K
  // A sliced bundle's runs live only on the shard its save-time partition
  // assigned them to; adopting a different partition would route queries to
  // shards that answer "no cycle" for vertices they never stored. K is
  // recorded, so an explicitly configured mismatch is rejected here
  // (num_shards == 1, the default, means "adopt the bundle's").
  if (options_.num_shards > 1 && options_.num_shards != bundle_shards) {
    if (error) {
      *error = "sliced bundle was partitioned into " +
               std::to_string(bundle_shards) +
               " shards but the engine is configured for " +
               std::to_string(options_.num_shards) +
               "; sliced label runs cannot be re-partitioned — load with a "
               "matching num_shards or rebuild from the graph";
    }
    return false;
  }
  // ShardFns cannot be serialized, but their presence is recorded: loading
  // a custom-partitioned sliced bundle with the default partitioner (or
  // vice versa) is certainly wrong. Matching presence is trusted — reload
  // with the same function, as documented on slice_labels.
  if (info.custom_shard_fn != static_cast<bool>(options_.shard_fn)) {
    if (error) {
      *error = info.custom_shard_fn
                   ? "sliced bundle was partitioned by a custom shard_fn; "
                     "configure the same shard_fn to load it"
                   : "sliced bundle was partitioned by the default "
                     "contiguous ranges; clear the configured shard_fn to "
                     "load it";
    }
    return false;
  }
  return true;
}

bool ShardedEngine::LoadFrom(const std::string& bytes, std::string* error) {
  // Under tolerate_faults the bundle parses leniently: a CRC-failed shard
  // comes back as an empty payload with its fault recorded, and AdoptShards
  // quarantines it instead of failing the load.
  std::vector<std::string> shard_faults;
  std::optional<ShardedPayload> parsed = ParseShardedPayload(
      bytes, error, options_.tolerate_faults ? &shard_faults : nullptr);
  if (!parsed) return false;
  if (!BundleCompatible(parsed->info,
                        static_cast<uint32_t>(parsed->shards.size()), error)) {
    return false;
  }
  bool ok = AdoptShards(
      parsed->shards.size(), parsed->num_vertices,
      [&parsed](Engine& engine, uint32_t s) {
        return engine.LoadFrom(parsed->shards[s]);
      },
      options_.tolerate_faults ? &shard_faults : nullptr, error);
  if (!ok && error && error->empty()) {
    *error =
        "bundle shard does not load into backend '" + options_.backend + "'";
  }
  return ok;
}

bool ShardedEngine::LoadFromFile(const std::string& path, std::string* error) {
  std::string open_error;
  std::shared_ptr<IndexFile> file = IndexFile::Open(path, &open_error);
  if (!file && options_.tolerate_faults) {
    // The whole-file CRC covers every shard at once, so one rotten shard
    // fails the strict open before the per-shard checksums can pinpoint
    // it. Re-open checking structure only; the bundle walk's per-shard
    // CRCs still guard every byte served, and a payload that is not a
    // bundle (no inner checksums) is never accepted unverified.
    file = IndexFile::Open(path, nullptr, /*verify_crc=*/false);
    if (file && !IsShardedPayload(file->payload(), file->payload_size())) {
      file = nullptr;
    }
  }
  if (!file) {
    if (error) *error = open_error;
    return false;
  }
  return LoadFromMapping(file, error);
}

bool ShardedEngine::LoadFromMapping(const std::shared_ptr<IndexFile>& file,
                                    std::string* error) {
  if (!file) {
    if (error) *error = "no mapping";
    return false;
  }
  std::vector<std::string> shard_faults;
  std::optional<ShardedPayloadView> parsed =
      ParseShardedPayloadView(file->payload(), file->payload_size(), error,
                              options_.tolerate_faults ? &shard_faults
                                                       : nullptr);
  if (!parsed) return false;
  if (!BundleCompatible(parsed->info,
                        static_cast<uint32_t>(parsed->shards.size()), error)) {
    return false;
  }
  // Every shard engine views its span of the one shared mapping; the
  // mapping stays alive until the last shard snapshot referencing it dies.
  bool ok = AdoptShards(
      parsed->shards.size(), parsed->num_vertices,
      [&parsed, &file](Engine& engine, uint32_t s) {
        return engine.LoadView(parsed->shards[s].first,
                               parsed->shards[s].second, file);
      },
      options_.tolerate_faults ? &shard_faults : nullptr, error);
  if (!ok && error && error->empty()) {
    *error = "bundle shard does not load into backend '" + options_.backend +
             "'";
  }
  return ok;
}

bool ShardedEngine::SaveTo(std::string& bytes) const {
  std::vector<std::string> payloads(num_shards());
  for (uint32_t s = 0; s < num_shards(); ++s) {
    if (!shards_[s]->SaveTo(payloads[s])) return false;
  }
  // Record the partition properties a future loader must match: slicing is
  // taken from the configuration (a backend that cannot slice saves full
  // runs anyway, which only makes a rejected reload conservative).
  ShardedBundleInfo info;
  info.sliced = options_.slice_labels;
  info.custom_shard_fn = static_cast<bool>(options_.shard_fn);
  bytes = WrapShardedPayload(payloads, num_vertices_, info);
  return true;
}

CycleCount ShardedEngine::Query(Vertex v) { return QueryWithStatus(v).count; }

ShardedQueryResult ShardedEngine::QueryWithStatus(Vertex v) {
  return QueryWithStatus(v, QueryOptions{});
}

ShardedQueryResult ShardedEngine::QueryWithStatus(Vertex v,
                                                  const QueryOptions& options) {
  if (num_vertices_ == 0 || v >= num_vertices_) return {};
  uint32_t s = ShardOf(v);
  if (shard_state_[s] == ShardState::kHealthy) {
    QueryResult answer = shards_[s]->Query(v, options);
    return {answer.count, ShardState::kHealthy, answer.status};
  }
  ShardedQueryResult result;
  result.served_by = shard_state_[s];
  result.count = MeteredDegradedAnswer(v, options.deadline, &result.status);
  return result;
}

bool ShardedEngine::AllHealthy() const {
  return std::all_of(shard_state_.begin(), shard_state_.end(),
                     [](ShardState s) { return s == ShardState::kHealthy; });
}

bool ShardedEngine::degraded() const { return !AllHealthy(); }

CycleCount ShardedEngine::DegradedAnswer(Vertex v) const {
  // Exact but index-free: the BFS baseline recomputes SCCnt(v) from the
  // fallback graph on every query. Vertices past the graph (reserve ids
  // never added) have no cycles by construction.
  if (fallback_graph_ && v < fallback_graph_->num_vertices()) {
    return BfsCountCycles(*fallback_graph_, v);
  }
  return {};
}

CycleCount ShardedEngine::MeteredDegradedAnswer(Vertex v,
                                                const Deadline& deadline,
                                                QueryStatus* status) {
  fallback_queries_.fetch_add(1, std::memory_order_relaxed);
  if (deadline.unbounded()) {
    // No budget to protect: the breaker and the gate exist to keep slow
    // fallbacks from blowing callers' deadlines, and this caller has none.
    // The exact answer, unmetered.
    *status = QueryStatus::kOk;
    return DegradedAnswer(v);
  }
  if (deadline.expired()) {
    // A deadline missed before the BFS even starts is the load signal the
    // breaker exists for: enough of these and degraded serving flips from
    // slow-but-exact to shed-and-cheap.
    fallback_timeouts_.fetch_add(1, std::memory_order_relaxed);
    fallback_breaker_.RecordFailure();
    *status = QueryStatus::kTimeout;
    return {};
  }
  if (!fallback_breaker_.Allow()) {
    // Breaker-open sheds are the breaker working, not new evidence of
    // failure — no RecordFailure, or an open breaker could never close.
    fallback_shed_.fetch_add(1, std::memory_order_relaxed);
    *status = QueryStatus::kShed;
    return {};
  }
  if (!fallback_gate_.TryAcquire(1)) {
    fallback_shed_.fetch_add(1, std::memory_order_relaxed);
    fallback_breaker_.RecordFailure();
    *status = QueryStatus::kShed;
    return {};
  }
  CycleCount answer = DegradedAnswer(v);
  fallback_gate_.Release(1);
  if (deadline.expired()) {
    // The BFS finished late: the answer is exact, so return it, but type
    // the result and feed the breaker — sustained overruns should trip it.
    fallback_timeouts_.fetch_add(1, std::memory_order_relaxed);
    fallback_breaker_.RecordFailure();
    *status = QueryStatus::kTimeout;
    return answer;
  }
  fallback_breaker_.RecordSuccess();
  *status = QueryStatus::kOk;
  return answer;
}

BatchQueryResult ShardedEngine::ShardAnswers(
    uint32_t s, const std::vector<Vertex>& vertices,
    const QueryOptions& options) {
  if (shard_state_[s] == ShardState::kHealthy) {
    return shards_[s]->BatchQuery(vertices, options);
  }
  BatchQueryResult result;
  result.counts.assign(vertices.size(), CycleCount{});
  result.answered.assign(vertices.size(), 0);
  for (size_t k = 0; k < vertices.size(); ++k) {
    QueryStatus status = QueryStatus::kOk;
    CycleCount answer = MeteredDegradedAnswer(vertices[k], options.deadline,
                                              &status);
    if (status == QueryStatus::kTimeout) {
      // Out of budget: stop the sweep here. The late answer (if any) is
      // dropped rather than reported — a timeout result describes only
      // work completed in budget.
      result.status = QueryStatus::kTimeout;
      return result;
    }
    if (status == QueryStatus::kShed) {
      // Metered away, but the budget still stands: keep sweeping. The
      // vertex stays unanswered and the batch reports kShed.
      result.status = MergeStatus(result.status, QueryStatus::kShed);
      continue;
    }
    result.counts[k] = answer;
    result.answered[k] = 1;
    ++result.completed;
  }
  return result;
}

void ShardedEngine::SetFallbackGraph(DiGraph graph) {
  fallback_graph_ = std::make_shared<const DiGraph>(std::move(graph));
  for (ShardState& state : shard_state_) {
    if (state == ShardState::kQuarantined) state = ShardState::kDegraded;
  }
}

bool ShardedEngine::ReloadShard(uint32_t s, const std::string& path,
                                std::string* error) {
  if (s >= num_shards()) {
    if (error) *error = "no such shard " + std::to_string(s);
    return false;
  }
  // Structure-only open + lenient bundle walk: only shard s's own CRC has
  // to verify — the other shards (possibly still rotten on disk) are not
  // touched.
  std::shared_ptr<IndexFile> file =
      IndexFile::Open(path, error, /*verify_crc=*/false);
  if (!file) return false;
  std::vector<std::string> shard_faults;
  std::optional<ShardedPayloadView> parsed = ParseShardedPayloadView(
      file->payload(), file->payload_size(), error, &shard_faults);
  if (!parsed) return false;
  if (parsed->shards.size() != shards_.size() ||
      parsed->num_vertices != num_vertices_) {
    if (error) {
      *error = "bundle at '" + path +
               "' does not match the running deployment (" +
               std::to_string(parsed->shards.size()) + " shards over " +
               std::to_string(parsed->num_vertices) + " vertices vs " +
               std::to_string(shards_.size()) + " over " +
               std::to_string(num_vertices_) + ")";
    }
    return false;
  }
  if (!BundleCompatible(parsed->info,
                        static_cast<uint32_t>(parsed->shards.size()), error)) {
    return false;
  }
  if (!shard_faults[s].empty()) {
    if (error) {
      *error = "shard " + std::to_string(s) + " is still corrupt: " +
               shard_faults[s];
    }
    return false;
  }
  auto engine = std::make_unique<Engine>(ShardEngineOptions(num_shards()));
  if (options_.slice_labels) {
    engine->set_slice_keep(
        OwnershipPredicate(s, num_shards(), num_vertices_));
  }
  if (!engine->LoadView(parsed->shards[s].first, parsed->shards[s].second,
                        file) ||
      engine->num_vertices() != num_vertices_) {
    if (error) {
      *error = "shard " + std::to_string(s) +
               " payload does not restore into backend '" + options_.backend +
               "'";
    }
    return false;
  }
  shards_[s] = std::move(engine);
  shard_state_[s] = ShardState::kHealthy;
  shard_fault_[s].clear();
  return true;
}

std::vector<CycleCount> ShardedEngine::BatchQuery(
    const std::vector<Vertex>& vertices) {
  return BatchQuery(vertices, QueryOptions{}).counts;
}

std::vector<CycleCount> ShardedEngine::QueryAll() {
  return QueryAll(QueryOptions{}).counts;
}

GirthInfo ShardedEngine::Girth() { return Girth(QueryOptions{}).info; }

std::vector<ScreeningHit> ShardedEngine::Screen(Dist max_cycle_length,
                                                size_t top_k) {
  return Screen(max_cycle_length, top_k, QueryOptions{}).hits;
}

BatchQueryResult ShardedEngine::BatchQuery(const std::vector<Vertex>& vertices,
                                           const QueryOptions& options) {
  BatchQueryResult result;
  result.counts.assign(vertices.size(), CycleCount{});
  result.answered.assign(vertices.size(), 0);
  if (shards_.empty() || num_vertices_ == 0) {
    // Nothing to route to: everything answers empty — a complete (if
    // vacuous) answer.
    std::fill(result.answered.begin(), result.answered.end(), char{1});
    result.completed = vertices.size();
    return result;
  }
  std::vector<std::vector<size_t>> positions(num_shards());
  for (size_t i = 0; i < vertices.size(); ++i) {
    if (vertices[i] < num_vertices_) {
      positions[ShardOf(vertices[i])].push_back(i);
    } else {
      // Out-of-range vertices keep the empty answer and cost no budget.
      result.answered[i] = 1;
      ++result.completed;
    }
  }
  // Each shard checks the same absolute deadline; local[] keeps the
  // fan-out race-free (disjoint writes, merged on the calling thread).
  std::vector<BatchQueryResult> local(num_shards());
  ForEachShard([&](uint32_t s) {
    if (positions[s].empty()) return;
    std::vector<Vertex> sub;
    sub.reserve(positions[s].size());
    for (size_t i : positions[s]) sub.push_back(vertices[i]);
    local[s] = ShardAnswers(s, sub, options);
  });
  for (uint32_t s = 0; s < num_shards(); ++s) {
    for (size_t k = 0; k < local[s].answered.size(); ++k) {
      if (!local[s].answered[k]) continue;
      result.counts[positions[s][k]] = local[s].counts[k];
      result.answered[positions[s][k]] = 1;
      ++result.completed;
    }
    result.status = MergeStatus(result.status, local[s].status);
  }
  return result;
}

BatchQueryResult ShardedEngine::QueryAll(const QueryOptions& options) {
  BatchQueryResult result;
  result.counts.assign(num_vertices_, CycleCount{});
  result.answered.assign(num_vertices_, 0);
  std::vector<BatchQueryResult> local(num_shards());
  ForEachShard([&](uint32_t s) {
    local[s] = ShardAnswers(s, owned_[s], options);
  });
  for (uint32_t s = 0; s < num_shards(); ++s) {
    for (size_t k = 0; k < local[s].answered.size(); ++k) {
      if (!local[s].answered[k]) continue;
      result.counts[owned_[s][k]] = local[s].counts[k];
      result.answered[owned_[s][k]] = 1;
      ++result.completed;
    }
    result.status = MergeStatus(result.status, local[s].status);
  }
  return result;
}

GirthResult ShardedEngine::Girth(const QueryOptions& options) {
  // The merged sweep folded in vertex order, vertices left unanswered read
  // as empty: on kOk the sweep was complete and this is exactly a single
  // Engine's girth.
  const BatchQueryResult sweep = QueryAll(options);
  GirthResult result;
  result.status = sweep.status;
  result.scanned = static_cast<Vertex>(sweep.completed);
  result.info = ComputeGirth(
      num_vertices_, [&sweep](Vertex v) { return sweep.counts[v]; });
  return result;
}

ScreenResult ShardedEngine::Screen(Dist max_cycle_length, size_t top_k,
                                   const QueryOptions& options) {
  // Unanswered vertices hold empty counts, which the ranking drops.
  const BatchQueryResult sweep = QueryAll(options);
  ScreenResult result;
  result.hits = TopKByCycleCount(sweep.counts, max_cycle_length, top_k);
  result.scanned = static_cast<Vertex>(sweep.completed);
  result.status = sweep.status;
  return result;
}

size_t ShardedEngine::ApplyUpdates(const std::vector<EdgeUpdate>& updates,
                                   std::vector<uint64_t>* epochs) {
  return ApplyUpdates(updates, Deadline(), epochs);
}

size_t ShardedEngine::ApplyUpdates(const std::vector<EdgeUpdate>& updates,
                                   const Deadline& deadline,
                                   std::vector<uint64_t>* epochs) {
  if (shards_.empty()) return 0;
  // Degraded deployments are read-only: a quarantined shard cannot observe
  // the batch, and letting the healthy replicas advance without it would
  // leave the deployment permanently inconsistent (ReloadShard restores
  // from the bundle file, which predates any such update).
  if (!AllHealthy()) {
    if (epochs) epochs->assign(num_shards(), 0);
    return 0;
  }
  // All-or-nothing admission: probe every shard (sharing one deadline)
  // before any shard mutates. A probe's admit cannot be invalidated before
  // the fan-out below — there is exactly one writer (the documented
  // contract) and backlogs only shrink without it — so either every shard
  // takes the batch or none does, and the K replicas never diverge.
  for (uint32_t s = 0; s < num_shards(); ++s) {
    if (!shards_[s]->AdmitProbe(updates.size(), deadline)) {
      if (epochs) epochs->assign(num_shards(), 0);
      return 0;
    }
  }
  // Every shard holds the full closure, so every shard applies the full
  // ordered batch (deterministic backends keep the replicas identical).
  // The grouping by owning shard is the accounting: update i counts as
  // applied iff the shard owning its edge applied it. In async mode each
  // shard returns after validation; the per-shard epoch tokens come back
  // through `epochs` for WaitForEpochs.
  std::vector<std::vector<UpdateVerdict>> verdicts(num_shards());
  if (epochs) epochs->assign(num_shards(), 0);
  ForEachShard([&](uint32_t s) {
    uint64_t epoch = 0;
    shards_[s]->ApplyUpdates(updates, &verdicts[s], &epoch);
    if (epochs) (*epochs)[s] = epoch;
  });
  size_t applied = 0;
  for (size_t i = 0; i < updates.size(); ++i) {
    Vertex from = updates[i].edge.from;
    uint32_t owner = from < num_vertices_ ? ShardOf(from) : 0;
    if (verdicts[owner][i] == UpdateVerdict::kApplied) ++applied;
  }
  return applied;
}

bool ShardedEngine::WaitForEpochs(const std::vector<uint64_t>& epochs) {
  if (epochs.size() != shards_.size()) return false;
  // Sequential waits: every shard resolves concurrently regardless, so the
  // total is bounded by the slowest shard either way.
  bool landed = true;
  for (uint32_t s = 0; s < num_shards(); ++s) {
    landed = shards_[s]->WaitForEpoch(epochs[s]) && landed;
  }
  return landed;
}

WaitStatus ShardedEngine::WaitForEpochs(const std::vector<uint64_t>& epochs,
                                        std::chrono::milliseconds timeout) {
  if (epochs.size() != shards_.size()) return WaitStatus::kRolledBack;
  // One shared deadline: each sequential wait gets whatever time is left,
  // so the caller's bound holds regardless of how many shards are slow.
  const Deadline deadline = Deadline::After(timeout);
  WaitStatus worst = WaitStatus::kLanded;
  for (uint32_t s = 0; s < num_shards(); ++s) {
    WaitStatus status =
        shards_[s]->WaitForEpoch(epochs[s], deadline.remaining());
    if (status == WaitStatus::kTimeout) return WaitStatus::kTimeout;
    if (status == WaitStatus::kRolledBack) worst = WaitStatus::kRolledBack;
  }
  return worst;
}

void ShardedEngine::Drain() {
  for (const auto& shard : shards_) shard->Drain();
}

WaitStatus ShardedEngine::Drain(std::chrono::milliseconds timeout) {
  // One shared deadline across the K sequential waits, mirroring
  // WaitForEpochs: the caller's bound holds however many shards lag.
  const Deadline deadline = Deadline::After(timeout);
  for (const auto& shard : shards_) {
    if (shard->Drain(deadline.remaining()) == WaitStatus::kTimeout) {
      return WaitStatus::kTimeout;
    }
  }
  return WaitStatus::kLanded;
}

HealthState ShardedEngine::Health() const {
  bool starting = false;
  bool draining = false;
  bool overloaded = false;
  for (const auto& shard : shards_) {
    switch (shard->Health()) {
      case HealthState::kStarting:
        starting = true;
        break;
      case HealthState::kHealthy:
        break;
      case HealthState::kDegraded:
        // A single Engine never reports kDegraded (degradation is a
        // router-level notion, computed below from shard_state_).
        break;
      case HealthState::kDraining:
        draining = true;
        break;
      case HealthState::kOverloaded:
        overloaded = true;
        break;
    }
  }
  const bool degraded =
      !AllHealthy() ||
      fallback_breaker_.state() != CircuitBreaker::State::kClosed;
  // Severity order: an operator acts on the most urgent condition first.
  // kDegraded outranks kStarting so a deployment serving around a
  // quarantined shard (whose empty engine reports kStarting) shows up as
  // degraded, not booting.
  if (draining) return HealthState::kDraining;
  if (overloaded) return HealthState::kOverloaded;
  if (degraded) return HealthState::kDegraded;
  if (starting) return HealthState::kStarting;
  return HealthState::kHealthy;
}

bool ShardedEngine::BeginDrain() {
  bool any = false;
  for (const auto& shard : shards_) {
    if (shard->BeginDrain()) any = true;
  }
  return any;
}

void ShardedEngine::FinishDrain() {
  for (const auto& shard : shards_) shard->FinishDrain();
}

AdmissionStats ShardedEngine::AdmissionStatsTotal() const {
  AdmissionStats total;
  for (const auto& shard : shards_) {
    total.Accumulate(shard->admission_stats());
  }
  return total;
}

DegradedStats ShardedEngine::degraded_stats() const {
  DegradedStats stats;
  stats.fallback_queries = fallback_queries_.load(std::memory_order_relaxed);
  stats.fallback_shed = fallback_shed_.load(std::memory_order_relaxed);
  stats.fallback_timeouts =
      fallback_timeouts_.load(std::memory_order_relaxed);
  stats.breaker_transitions = fallback_breaker_.transitions();
  stats.breaker_state = fallback_breaker_.state();
  return stats;
}

uint64_t ShardedEngine::MemoryBytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->MemoryBytes();
  return total;
}

std::vector<ShardInfo> ShardedEngine::Stats() const {
  std::vector<ShardInfo> stats = shard_info_;
  if (stats.size() != shards_.size()) stats.resize(shards_.size());
  for (uint32_t s = 0; s < num_shards(); ++s) {
    stats[s].shard = s;
    stats[s].backend = shards_[s]->Stats();
    stats[s].state = shard_state_[s];
    stats[s].fault = shard_fault_[s];
  }
  return stats;
}

RepairStats ShardedEngine::RepairStatsTotal() const {
  RepairStats total;
  for (const auto& shard : shards_) {
    total.Accumulate(shard->repair_stats());
  }
  return total;
}

}  // namespace csc
