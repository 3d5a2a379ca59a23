#ifndef CSC_LABELING_HUB_LABELING_H_
#define CSC_LABELING_HUB_LABELING_H_

#include <cstdint>
#include <vector>

#include "labeling/label_set.h"
#include "labeling/label_store.h"

namespace csc {

/// Statistics recorded while building a hub labeling (reported by the
/// Figure 9 benchmark and the ablation bench).
struct LabelBuildStats {
  double seconds = 0;
  uint64_t entries = 0;
  uint64_t canonical_entries = 0;
  uint64_t non_canonical_entries = 0;
  /// Vertices dequeued across all pruned BFSs (a machine-independent proxy
  /// for construction work).
  uint64_t vertices_dequeued = 0;
  /// Dequeued vertices discarded by the distance-pruning query.
  uint64_t pruned_by_distance = 0;
  /// Construction workers this labeling was built with (0 = the sequential
  /// builder). The counters above are aggregated from per-pass staging
  /// partials at commit time under the parallel builder, so they are exact
  /// — and equal to a sequential build's — at any thread count.
  unsigned build_threads = 0;
  /// Hubs whose passes the parallel builder ran level-split (its first
  /// phase), and BFS levels it split across more than one worker, re-runs
  /// included (labeling/parallel_build.h). Like build_threads they describe
  /// the schedule, not the output: both are 0 for the sequential builder,
  /// and split_levels is 0 at one worker.
  uint64_t split_hubs = 0;
  uint64_t split_levels = 0;
  /// CSC builds: the construction label store (labeling/label_store.h) at
  /// the end of construction, and the slab bytes still mapped once the
  /// labels were handed over (0). Like split_hubs they describe the build,
  /// not its output.
  LabelStoreStats store;
  uint64_t store_mapped_after_release = 0;
};

/// A complete 2-hop labeling: one in-label set and one out-label set per
/// vertex. Shared by the HP-SPC baseline (over the original graph) and the
/// CSC index (over the bipartite conversion).
struct HubLabeling {
  std::vector<LabelSet> in;
  std::vector<LabelSet> out;

  void Resize(size_t num_vertices) {
    in.resize(num_vertices);
    out.resize(num_vertices);
  }
  size_t num_vertices() const { return in.size(); }

  /// Total number of label entries across all vertices and both directions.
  uint64_t TotalEntries() const {
    uint64_t total = 0;
    for (const LabelSet& l : in) total += l.size();
    for (const LabelSet& l : out) total += l.size();
    return total;
  }

  /// Packed index size in bytes (8 bytes per entry, the paper's encoding).
  uint64_t SizeBytes() const { return TotalEntries() * sizeof(LabelEntry); }

  /// 2-hop query: distance s->t and shortest-path multiplicity.
  JoinResult Query(Vertex s, Vertex t) const {
    return JoinLabels(out[s], in[t]);
  }

  friend bool operator==(const HubLabeling&, const HubLabeling&) = default;
};

}  // namespace csc

#endif  // CSC_LABELING_HUB_LABELING_H_
