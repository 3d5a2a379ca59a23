#ifndef CSC_DYNAMIC_PATCH_H_
#define CSC_DYNAMIC_PATCH_H_

#include "core/label_patch.h"
#include "csc/csc_index.h"
#include "dynamic/update_stats.h"

namespace csc {

/// Converts the label damage a maintenance pass recorded in `dirty` into a
/// bounded serving-tier patch against `shadow`'s current labeling.
///
/// The shadow and the serving forms store the same two sets per original
/// vertex v, L_in(v_i) and L_out(v_o) (§IV.E), so each dirty mark becomes a
/// (vertex, replacement LabelSet) run edit, sorted by vertex, copied out of
/// the shadow so the patch stays valid after further shadow maintenance.
///
/// The patch is rank-encoded and therefore only applies to snapshots built
/// under the same (pinned) ordering as `shadow`.
LabelPatch ExtractLabelPatch(const CscIndex& shadow,
                             const DirtyLabelTracker& dirty);

}  // namespace csc

#endif  // CSC_DYNAMIC_PATCH_H_
