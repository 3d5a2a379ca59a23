#ifndef CSC_DYNAMIC_UPDATE_STATS_H_
#define CSC_DYNAMIC_UPDATE_STATS_H_

#include <cstdint>
#include <vector>

#include "util/common.h"

namespace csc {

/// The rebuild-vs-repair threshold: fall back to reconstruction once a
/// batch's net change reaches this fraction of the current edge count. The
/// default of BatchOptions::rebuild_threshold, and the fixed threshold the
/// serving tier's repair pipeline lands with.
inline constexpr double kDefaultRebuildThreshold = 0.25;

/// How InsertEdge maintains the label minimality property (§V.B).
enum class MaintenanceStrategy {
  /// Skip redundancy checks (Algorithm 7 without lines 4/9). Out-of-date
  /// entries with now-too-long distances are left behind; they are provably
  /// never the minimum of a query join, so answers stay correct while
  /// updates run orders of magnitude faster. The paper's preferred mode.
  kRedundancy,
  /// Run CLEAN_LABEL (Algorithm 8) after every shortening/insert so the
  /// index stays minimal (Theorem V.3). Requires inverted hub indexes;
  /// 58-678x slower in the paper's measurements.
  kMinimality,
};

/// Records which original vertices' stored label sets (L_in(v_i) and
/// L_out(v_o), see CscIndex) a maintenance pass mutated, by direction, for
/// serving-tier patch extraction (dynamic/patch.h). The
/// maintenance algorithms mark every *actual* label mutation — insertion,
/// rewrite, or removal — never mere visits; marks deduplicate, so the dirty
/// lists bound the damage a batch did to the labeling.
class DirtyLabelTracker {
 public:
  /// Marks L_in(v_i) (`in_side`) or L_out(v_o) of original vertex `v` as
  /// mutated.
  void Mark(Vertex v, bool in_side) {
    std::vector<uint8_t>& marked = in_side ? in_marked_ : out_marked_;
    if (v >= marked.size()) marked.resize(static_cast<size_t>(v) + 1, 0);
    if (marked[v] != 0) return;
    marked[v] = 1;
    (in_side ? in_dirty_ : out_dirty_).push_back(v);
  }

  /// Mutated original vertices per side, in first-mutation order.
  const std::vector<Vertex>& dirty_in() const { return in_dirty_; }
  const std::vector<Vertex>& dirty_out() const { return out_dirty_; }
  bool empty() const { return in_dirty_.empty() && out_dirty_.empty(); }
  uint64_t TotalMarks() const { return in_dirty_.size() + out_dirty_.size(); }

  /// Clears the marks without releasing capacity (reused across batches).
  void Reset() {
    for (Vertex w : in_dirty_) in_marked_[w] = 0;
    for (Vertex w : out_dirty_) out_marked_[w] = 0;
    in_dirty_.clear();
    out_dirty_.clear();
  }

 private:
  std::vector<uint8_t> in_marked_, out_marked_;
  std::vector<Vertex> in_dirty_, out_dirty_;
};

/// Counters reported by the maintenance algorithms (Figures 11 and 12). The
/// entry counters count the two stored sets (CscIndex), not their derived
/// couple copies; vertices_visited counts couple-hop dequeues.
struct UpdateStats {
  double seconds = 0;
  /// Label entries newly inserted.
  uint64_t entries_added = 0;
  /// Existing entries rewritten (shorter distance or accumulated count).
  uint64_t entries_updated = 0;
  /// Entries removed (minimality cleaning, or decremental invalidation).
  uint64_t entries_removed = 0;
  /// Vertices dequeued across all maintenance BFS passes.
  uint64_t vertices_visited = 0;
  /// Affected hubs processed.
  uint64_t hubs_processed = 0;
  /// Strategy the maintenance actually ran with (batch results report the
  /// effective choice, so callers see rebuild-vs-repair agreement).
  MaintenanceStrategy strategy = MaintenanceStrategy::kRedundancy;
  /// When set, maintenance passes record every label-set mutation here (by
  /// original vertex and side) for patch extraction. Not owned; Accumulate
  /// merges counters only and leaves the tracker pointer alone.
  DirtyLabelTracker* dirty = nullptr;

  /// Records a mutation of L_in(v_i) (`in_side`) or L_out(v_o) in `dirty`.
  void MarkDirty(Vertex v, bool in_side) {
    if (dirty != nullptr) dirty->Mark(v, in_side);
  }

  /// Net index growth in label entries (Figure 11(b) / 12(b) report this).
  int64_t NetEntryDelta() const {
    return static_cast<int64_t>(entries_added) -
           static_cast<int64_t>(entries_removed);
  }

  void Accumulate(const UpdateStats& other) {
    seconds += other.seconds;
    entries_added += other.entries_added;
    entries_updated += other.entries_updated;
    entries_removed += other.entries_removed;
    vertices_visited += other.vertices_visited;
    hubs_processed += other.hubs_processed;
  }
};

}  // namespace csc

#endif  // CSC_DYNAMIC_UPDATE_STATS_H_
