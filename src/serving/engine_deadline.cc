/// Query paths for Engine (see serving/engine.h). The QueryOptions overloads
/// hold the one implementation; each budget-free form forwards to its
/// overload with an unbounded deadline. These live in their own translation
/// unit on purpose: they carry the "engine.query_deadline" failpoint, and
/// keeping that out of engine.cc keeps the contract checker's per-TU
/// blocking-call closure from reaching engine.cc's query_mu_ sections.
///
/// Budget protocol: the deadline is checked cooperatively at chunk
/// boundaries, never inside a lock section, so an expired budget is
/// observed between chunks and the partial result returned describes
/// exactly the prefix of work that completed (`answered` mask +
/// `completed` count). A timeout is always typed (QueryStatus::kTimeout) —
/// never a silent short answer.

#include <algorithm>

#include "csc/girth.h"
#include "serving/engine.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace csc {

namespace {

/// One shared deadline probe: the failpoint's error action makes "budget
/// exhausted" deterministic for tests; otherwise it is a real clock check.
bool BudgetExhausted(const Deadline& deadline) {
  if (CSC_FAILPOINT("engine.query_deadline")) return true;
  return deadline.expired();
}

}  // namespace

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

}  // namespace csc
