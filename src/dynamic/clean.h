#ifndef CSC_DYNAMIC_CLEAN_H_
#define CSC_DYNAMIC_CLEAN_H_

#include "csc/csc_index.h"
#include "dynamic/update_stats.h"

namespace csc {

/// CLEAN_LABEL (Algorithm 8), run once per landing: removes every stored
/// entry made redundant by the shorter paths a run of INCCNT passes opened.
/// `changed` holds the stored sets that got a new or shortened entry —
/// L_in(w_i) of w in dirty_in(), L_out(v_o) of v in dirty_out() — and the
/// routine removes
///   (1) entries (h, d, c) of each changed set with d above the 2-hop
///       distance between h and the set's owner under the current index,
///   (2) for a changed L_in(w_i), entries (w_i, d, c) in any L_out(x_o)
///       with d > dist(x_o, w_i),
///   (3) for a changed L_out(v_o), and so L_out(v_i), entries (v_i, d, c)
///       in any L_in(u_i), u != v, with d > dist(v_i, u_i).
/// The holders of (2) and (3) are found in one scan of the stored entries.
/// Only the two stored sets are cleaned: L_in(w_o) and L_out(v_i) follow
/// them one step further (§IV.E), and w_o is no other set's hub. Every
/// removal is marked in stats.dirty.
void CleanChangedLabels(CscIndex& index, const DirtyLabelTracker& changed,
                        UpdateStats& stats);

}  // namespace csc

#endif  // CSC_DYNAMIC_CLEAN_H_
