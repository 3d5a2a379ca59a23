#ifndef CSC_DYNAMIC_BATCH_H_
#define CSC_DYNAMIC_BATCH_H_

#include <cstddef>
#include <vector>

#include "csc/csc_index.h"
#include "dynamic/edge_update.h"
#include "dynamic/update_stats.h"

namespace csc {

/// Options for batch maintenance.
struct BatchOptions {
  /// Strategy handed to each per-edge insertion (see update_stats.h).
  MaintenanceStrategy strategy = MaintenanceStrategy::kRedundancy;
  /// When the batch's *net* edge changes reach this fraction of the
  /// current edge count, the batch is applied by rebuilding the index from
  /// scratch instead of per-edge repair — beyond some churn, reconstruction
  /// is cheaper than thousands of resumed BFSs (the crossover the paper
  /// quantifies as "2.3e-5 of the reconstruction time" per single edge).
  /// Set to a value > 1 to never rebuild (also on an edgeless index, or
  /// for a batch larger than the graph), or 0 to always rebuild. The
  /// serving tier's repair pipeline always uses the default
  /// (update_stats.h).
  double rebuild_threshold = kDefaultRebuildThreshold;
  /// When set, the rebuild path reconstructs under this fixed ordering
  /// (over original vertices) instead of recomputing DegreeOrdering from
  /// the mutated graph. The serving-tier repair pipeline pins its build
  /// ordering this way so label ranks stay stable across patches.
  const VertexOrdering* pinned_order = nullptr;
  /// When set, per-edge maintenance records every label-set mutation here
  /// (see DirtyLabelTracker). The rebuild path does NOT populate it — check
  /// BatchResult::rebuilt before trusting the tracker's damage bound.
  DirtyLabelTracker* dirty = nullptr;
};

/// Outcome of ApplyUpdates.
struct BatchResult {
  /// Aggregated maintenance counters (zeroed when `rebuilt`);
  /// `stats.strategy` reports the strategy the batch effectively ran with.
  UpdateStats stats;
  /// Net insertions / removals actually applied to the graph.
  size_t inserted = 0;
  size_t removed = 0;
  /// Updates that had no net effect: self-loops, out-of-range endpoints,
  /// inserts of present edges, removals of absent edges, and
  /// insert/remove pairs that cancelled within the batch. Always satisfies
  /// inserted + removed + skipped == updates.size().
  size_t skipped = 0;
  /// True when the rebuild path was taken.
  bool rebuilt = false;
  /// Wall-clock seconds for the whole batch (repair or rebuild).
  double seconds = 0;
};

/// Applies a sequence of edge updates to the index.
///
/// The batch is first reduced to its *net* effect against the current graph
/// (an insert+remove pair of the same edge inside one batch cancels; a
/// remove+insert pair of a present edge likewise). Net removals are applied
/// before net insertions — they commute because the two sets are disjoint —
/// which matters for correctness: decremental repair requires a minimal
/// index, and redundancy-mode insertions destroy minimality.
///
/// Precondition (inherited from RemoveEdge): if the batch contains
/// removals, the index must currently be minimal — freshly built,
/// minimality-maintained, or rebuilt. With `strategy == kMinimality` the
/// index stays minimal across batches; with kRedundancy, insert-only
/// batches may follow each other freely, but a batch containing removals
/// must come first or after a rebuild.
BatchResult ApplyUpdates(CscIndex& index,
                         const std::vector<EdgeUpdate>& updates,
                         const BatchOptions& options = BatchOptions());

/// Rebuilds the index in place from its current (mutated) graph: recomputes
/// the degree ordering and constructs a fresh index with the same Options.
/// This restores minimality after a run of redundancy-mode insertions (the
/// "compaction" of this storage scheme) and re-optimizes the ordering after
/// heavy degree drift.
void RebuildIndex(CscIndex& index);

}  // namespace csc

#endif  // CSC_DYNAMIC_BATCH_H_
