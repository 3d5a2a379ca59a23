#ifndef CSC_DYNAMIC_CLEAN_H_
#define CSC_DYNAMIC_CLEAN_H_

#include "csc/csc_index.h"
#include "dynamic/update_stats.h"

namespace csc {

/// CLEAN_LABEL (Algorithm 8) for an in-label change: after L_in(w_i) of
/// original vertex `w` gained a shorter or new entry, removes every label
/// entry made redundant by the new shorter paths towards w_i —
///   (1) entries (h, d, c) in L_in(w_i) with d > current distance h -> w_i,
///   (2) entries (w_i, d, c) in L_out(v_o) (found via inv_out) with
///       d > current distance v_o -> w_i.
/// Only the two stored sets are cleaned: L_in(w_o) and L_out(v_i) follow
/// them one step further (§IV.E), and w_o is no other set's hub.
/// Requires the index's inverted indexes (EnsureInvertedIndexes()).
void CleanAfterInLabelChange(CscIndex& index, Vertex w, UpdateStats& stats);

/// Mirror of CleanAfterInLabelChange for an out-label change of L_out(v_o):
/// removes stale entries in L_out(v_o), and, since L_out(v_i) changed with
/// it, stale (v_i, d, c) entries in L_in(u_i) found via inv_in.
void CleanAfterOutLabelChange(CscIndex& index, Vertex v, UpdateStats& stats);

}  // namespace csc

#endif  // CSC_DYNAMIC_CLEAN_H_
