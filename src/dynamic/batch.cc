#include "dynamic/batch.h"

#include <unordered_map>
#include <utility>

#include "dynamic/decremental.h"
#include "dynamic/incremental.h"
#include "util/timer.h"

namespace csc {

namespace {

uint64_t EdgeKey(const Edge& e) {
  return (uint64_t{e.from} << 32) | e.to;
}

Edge KeyEdge(uint64_t key) {
  return {static_cast<Vertex>(key >> 32),
          static_cast<Vertex>(key & 0xffffffffu)};
}

}  // namespace

BatchResult ApplyUpdates(CscIndex& index,
                         const std::vector<EdgeUpdate>& updates,
                         const BatchOptions& options) {
  Timer timer;
  BatchResult result;
  const DiGraph& graph = index.graph();
  const Vertex n = index.num_original_vertices();

  // Reduce to net effect: simulate presence per touched edge. `pending`
  // maps the edge to its simulated presence plus the number of
  // state-changing operations applied to it; comparing the simulated and
  // real presence at the end yields the net operation.
  struct Pending {
    bool present;
    size_t toggles;
  };
  std::unordered_map<uint64_t, Pending> pending;
  auto is_present = [&](const Edge& e) { return graph.HasEdge(e.from, e.to); };
  for (const EdgeUpdate& update : updates) {
    const Edge& e = update.edge;
    if (e.from >= n || e.to >= n || e.from == e.to) {
      ++result.skipped;
      continue;
    }
    uint64_t key = EdgeKey(e);
    auto it = pending.find(key);
    bool present = it != pending.end() ? it->second.present : is_present(e);
    bool want_present = update.kind == UpdateKind::kInsert;
    if (present == want_present) {
      ++result.skipped;  // no-op against the simulated state
      continue;
    }
    if (it != pending.end()) {
      it->second.present = want_present;
      ++it->second.toggles;
    } else {
      pending.emplace(key, Pending{want_present, 1});
    }
  }

  std::vector<Edge> to_insert;
  std::vector<Edge> to_remove;
  for (const auto& [key, state] : pending) {
    Edge e = KeyEdge(key);
    if (state.present == is_present(e)) {
      // An even toggle chain that ended where it started: all cancelled.
      result.skipped += state.toggles;
      continue;
    }
    // One op of the chain takes net effect; the rest cancelled pairwise.
    result.skipped += state.toggles - 1;
    (state.present ? to_insert : to_remove).push_back(e);
  }

  // Rebuild path: past the churn threshold, reconstruction beats per-edge
  // repair and sidesteps the minimality precondition entirely. A threshold
  // above 1 never rebuilds, whatever the batch or the edge count.
  size_t net_changes = to_insert.size() + to_remove.size();
  if (net_changes > 0 && options.rebuild_threshold <= 1 &&
      static_cast<double>(net_changes) >=
          options.rebuild_threshold * static_cast<double>(graph.num_edges())) {
    // Mutates a copy, so a throwing build leaves the index untouched.
    DiGraph next = graph;
    for (const Edge& e : to_remove) next.RemoveEdge(e.from, e.to);
    for (const Edge& e : to_insert) next.AddEdge(e.from, e.to);
    // A pinned ordering keeps ranks stable across rebuilds (the serving
    // tier's repair pipeline depends on this); otherwise re-optimize for
    // the mutated degree distribution as before.
    if (options.pinned_order != nullptr) {
      index = CscIndex::Build(next, *options.pinned_order, index.options());
    } else {
      index = CscIndex::Build(next, DegreeOrdering(next), index.options());
    }
    result.inserted = to_insert.size();
    result.removed = to_remove.size();
    result.rebuilt = true;
    result.stats.strategy = options.strategy;
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

  // Removals first (they require the still-minimal index), then inserts.
  for (const Edge& e : to_remove) {
    UpdateStats stats;
    stats.dirty = options.dirty;
    if (RemoveEdge(index, e.from, e.to, &stats)) {
      ++result.removed;
      result.stats.Accumulate(stats);
    } else {
      ++result.skipped;
    }
  }
  for (const Edge& e : to_insert) {
    UpdateStats stats;
    stats.dirty = options.dirty;
    if (InsertEdge(index, e.from, e.to, options.strategy, &stats)) {
      ++result.inserted;
      result.stats.Accumulate(stats);
    } else {
      ++result.skipped;
    }
  }
  result.stats.strategy = options.strategy;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

void RebuildIndex(CscIndex& index) {
  const DiGraph& graph = index.graph();
  index = CscIndex::Build(graph, DegreeOrdering(graph), index.options());
}

}  // namespace csc
