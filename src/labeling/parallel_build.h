#ifndef CSC_LABELING_PARALLEL_BUILD_H_
#define CSC_LABELING_PARALLEL_BUILD_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/ordering.h"
#include "util/common.h"
#include "util/page_allocator.h"
#include "util/thread_pool.h"

namespace csc {

/// Rank-batched parallel hub-labeling construction.
///
/// The sequential builders (Algorithm 3 and the plain HP-SPC pass) process
/// hubs strictly in rank order because every pruned BFS consults the labels
/// of all higher-ranked hubs. This framework recovers parallelism without
/// giving up that order — or bit-identical output:
///
///   1. **Stage.** Hubs are taken in rank-ordered batches. Within a batch,
///      every forward and every backward pruned counting BFS is its own
///      ThreadPool work item, run against the labels committed by *earlier
///      batches* (the label arrays are read-only while a batch stages), so
///      even a singleton batch stages its two passes side by side. The two
///      passes of one hub read only committed labels and never each other's
///      events. Instead of appending labels, a staged pass records its
///      labeled dequeues as `StagedEvent`s in its own `StagedPass` buffer.
///   2. **Validate.** A staged BFS saw every committed label but not the
///      labels of *same-batch lower-ranked hubs*, so it may under-prune.
///      Because the only label entries it missed carry in-batch hub ranks,
///      the sequential distance-pruning query for hub r at vertex w
///      decomposes exactly as
///        via_seq(w) = min(via_staged(w), via_batch(w)),
///      where via_batch joins only the *staged entries of batch hubs with
///      rank < r* — a few lookups per event, not a full label join. A pass's
///      own appends can never affect its own pruning queries (a rank-r entry
///      must appear on both sides of a join to matter, and the side that
///      would complete the pair is always appended after its check), so
///      validation needs no label mutation at all.
///   3. **Commit.** A single thread commits hubs in rank order. A hub whose
///      events all satisfy via_seq >= dist is *clean*: its staged traversal
///      is exactly the sequential one (pruning against a superset can only
///      prune more, and validation proved it pruned nowhere new), so its
///      events replay into label appends verbatim. A *dirty* hub re-stages
///      against the now-current labels — which IS the sequential pass with
///      appends deferred — and commits that. Either way the labeling after
///      every batch equals the sequential builder's, so the final index is
///      bit-identical at any thread count, and so are the build stats
///      (canonical/non-canonical classification re-derives from via_seq).
///
/// Batch sizes adapt to the dirty rate, from 1 up to `kMaxBatchRanks`
/// ranks (so at most 32 CSC hubs: out-vertices root no BFS): a batch that
/// re-ran any pass drops the next batch back to a singleton, a fully clean
/// batch doubles toward the cap. The top-ranked hubs prune each other
/// heavily (a dirty hub there stages a near-unpruned BFS only to re-run
/// it), so batches stay small exactly while that holds and grow
/// geometrically through the long clean tail. The schedule depends only on
/// staged results — which are schedule-independent — never on the thread
/// count, so the committed work, and therefore the stats, are identical for
/// any number of workers.
///
/// Concurrency contract (why this file carries no CSC_GUARDED_BY
/// annotations): there is no mutex-protected shared state. Workers claim
/// staged-pass slots through a single atomic counter, write only their
/// claimed `StagedPass` and their own per-thread scratch, and read only
/// labels committed by earlier batches — immutable for the duration of the
/// stage. The sole synchronization point is `ThreadPool::Wait()` (itself
/// annotated, util/thread_pool.h), whose barrier orders every staged write
/// before the serial commit loop reads them. The TSan CI job runs the
/// determinism suite over this handoff at 1..8 workers.
inline constexpr size_t kMaxBatchRanks = 64;

/// One labeled dequeue of a staged pruned BFS pass: vertex, BFS distance,
/// path multiplicity, and the distance-pruning join observed at stage time
/// (kInfDist when pruning is disabled or no common hub existed).
struct StagedEvent {
  Vertex w = 0;
  Dist dist = 0;
  Count count = 0;
  Dist via_dist = kInfDist;
};

/// One staged (forward or backward) pass of one hub: the labeled dequeues in
/// BFS order plus the pass's work counters, and a sorted (vertex -> dist)
/// view of the events for the batch-local validation joins, built only for
/// the passes a later hub of the batch validates against. The two buffers
/// grow on pool threads, so they take PageAllocator: the build's end then
/// returns them to the system instead of leaving them in those threads'
/// malloc arenas.
struct StagedPass {
  std::vector<StagedEvent, PageAllocator<StagedEvent>> events;
  uint64_t dequeued = 0;
  uint64_t pruned = 0;

  void Clear() {
    events.clear();
    by_vertex_.clear();
    dequeued = 0;
    pruned = 0;
  }

  /// Builds the sorted lookup view; call once after the pass finishes, if
  /// DistAt will be asked.
  void Finalize() {
    by_vertex_.clear();
    by_vertex_.reserve(events.size());
    for (const StagedEvent& e : events) by_vertex_.push_back({e.w, e.dist});
    std::sort(by_vertex_.begin(), by_vertex_.end());
  }

  /// Distance this pass labeled `v` with, or kInfDist if `v` was not
  /// labeled. Valid after Finalize().
  Dist DistAt(Vertex v) const {
    auto it = std::lower_bound(by_vertex_.begin(), by_vertex_.end(),
                               std::pair<Vertex, Dist>{v, 0});
    if (it == by_vertex_.end() || it->first != v) return kInfDist;
    return it->second;
  }

 private:
  std::vector<std::pair<Vertex, Dist>, PageAllocator<std::pair<Vertex, Dist>>>
      by_vertex_;
};

/// The two staged passes of one batch hub.
struct StagedHub {
  Rank rank = 0;
  Vertex hub = 0;
  StagedPass fwd;
  StagedPass bwd;

  void Reset(Rank r, Vertex v) {
    rank = r;
    hub = v;
    fwd.Clear();
    bwd.Clear();
  }
};

/// Per-pass outcome of ValidateStagedHub: the forward and backward passes
/// never read each other's appends (a rank-r entry must sit on both sides
/// of a pruning join to matter, and the completing side is always appended
/// after its check), so a dirty forward pass does not invalidate a clean
/// backward staging — only the dirty pass needs the sequential re-run.
struct PassValidation {
  bool fwd_clean = true;
  bool bwd_clean = true;
};

/// Validates hub `staged[idx]` against the staged entries of lower-ranked
/// batch hubs `staged[0..idx)`, folding the batch-local join into each
/// event's via_dist so commit-time classification sees the sequential
/// value. A pass is dirty if some event the sequential builder would have
/// pruned (via_seq < dist) is found; its partially folded via distances are
/// discarded with the re-stage.
///
/// `builder` supplies the two label-placement rules that differ between the
/// plain and couple-skip constructions:
///   NewOutDist(lower, hub): distance of the entry `lower`'s backward pass
///     gives L_out(hub) as the hub's pruning row reads it, or kInfDist. The
///     plain builder appends that entry; the couple-skip builder appends
///     only its couple's entry to L_out(couple(hub)) and reads the row
///     shifted from there;
///   NewInDist(lower, hub): ditto for `lower`'s forward pass and L_in(hub).
template <typename Builder>
PassValidation ValidateStagedHub(const Builder& builder,
                                 std::vector<StagedHub>& staged, size_t idx) {
  StagedHub& sh = staged[idx];
  PassValidation result;
  // Entries lower-ranked batch hubs added to this hub's own label sets —
  // the only new mass on the hub side of the pruning joins.
  std::vector<std::pair<size_t, Dist>> new_out;  // -> L_out(hub)
  std::vector<std::pair<size_t, Dist>> new_in;   // -> L_in(hub)
  for (size_t j = 0; j < idx; ++j) {
    Dist a = builder.NewOutDist(staged[j], sh.hub);
    if (a != kInfDist) new_out.push_back({j, a});
    Dist c = builder.NewInDist(staged[j], sh.hub);
    if (c != kInfDist) new_in.push_back({j, c});
  }
  // Forward checks join L_out(hub) x L_in(w): the batch-new part pairs
  // new_out with the lower hub's forward labeling of w.
  if (!new_out.empty()) {
    for (StagedEvent& e : sh.fwd.events) {
      Dist via = e.via_dist;
      for (const auto& [j, a] : new_out) {
        Dist b = staged[j].fwd.DistAt(e.w);
        if (b != kInfDist) via = std::min(via, a + b);
      }
      if (via < e.dist) {
        result.fwd_clean = false;
        break;
      }
      e.via_dist = via;
    }
  }
  // Backward checks join L_out(w) x L_in(hub): new_in pairs with the lower
  // hub's backward labeling of w. The backward root (w == hub) is never
  // distance-checked by the sequential builder; skip it here too.
  if (!new_in.empty()) {
    for (StagedEvent& e : sh.bwd.events) {
      if (e.w == sh.hub) continue;
      Dist via = e.via_dist;
      for (const auto& [j, c] : new_in) {
        Dist d = staged[j].bwd.DistAt(e.w);
        if (d != kInfDist) via = std::min(via, d + c);
      }
      if (via < e.dist) {
        result.bwd_clean = false;
        break;
      }
      e.via_dist = via;
    }
  }
  return result;
}

/// Runs the full rank-batched build over ranks [0, num_ranks) with
/// `num_threads` staging workers (callers run the sequential builder for 0
/// and never pass it). `Builder` provides:
///   struct Scratch;                     // per-worker BFS scratch
///   void InitScratch(Scratch&);         // sized so staging never grows it
///   Vertex VertexAt(Rank r) const;      // the vertex ranked r
///   bool IsHub(Vertex v) const;         // does this rank root BFSs?
///   void CommitNonHub(Rank r, Vertex v);        // e.g. couple self-labels
///   bool distance_pruning() const;      // false => staging is always clean
///   void StagePass(StagedHub&, bool forward, Scratch&);  // record events,
///                                       // without Finalize
///   void Commit(const StagedHub&);      // replay events into labels+stats
///   Dist NewOutDist(const StagedHub&, Vertex) const;   // see above
///   Dist NewInDist(const StagedHub&, Vertex) const;
///
/// StagePass() must read only labels already committed and write only the
/// named pass of the hub (it runs concurrently with other StagePass() calls,
/// the same hub's other pass included, and with no writer);
/// Commit/CommitNonHub run on the calling thread only, in strict rank
/// order.
template <typename Builder>
void RunRankBatchedBuild(Builder& builder, size_t num_ranks,
                         unsigned num_threads) {
  // A worker beyond twice the batch cap can never be busy (a batch stages
  // at most two passes per hub, kMaxBatchRanks hubs), and each worker costs
  // an OS thread plus a full-size BFS scratch — so clamp rather than trust
  // the caller's flag.
  num_threads = static_cast<unsigned>(
      std::min<size_t>(std::max(1u, num_threads), 2 * kMaxBatchRanks));
  // One worker thread can only ever stage on the calling thread, so don't
  // spawn a pool that would sit idle for the whole build.
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);
  std::vector<typename Builder::Scratch> scratch(num_threads);
  for (auto& s : scratch) builder.InitScratch(s);
  std::vector<StagedHub> staged(kMaxBatchRanks);

  size_t batch_size = 1;  // adapted per batch; see the file comment
  size_t debug_dirty = 0, debug_hubs = 0, debug_staged_deq = 0,
         debug_rerun_deq = 0;
  double debug_stage_s = 0, debug_validate_s = 0, debug_rerun_s = 0,
         debug_replay_s = 0;
  // Staging efficiency by batch size: bucket b holds the batches of
  // (2^(b-1), 2^b] hubs; pass_s[i] times staged pass i of the batch.
  struct StageBucket {
    size_t batches = 0, hubs = 0;
    double stage_s = 0, pass_s = 0, longest_s = 0;
  };
  std::vector<StageBucket> debug_buckets;
  std::vector<double> pass_s(2 * kMaxBatchRanks);
  const bool debug = std::getenv("CSC_PARALLEL_DEBUG") != nullptr;
  // Clock reads sit inside the serial commit loop; only pay for them when
  // the phase report was asked for.
  auto now = [debug] {
    return debug ? std::chrono::steady_clock::now()
                 : std::chrono::steady_clock::time_point{};
  };
  auto secs = [](auto a, auto b) {
    return std::chrono::duration<double>(b - a).count();
  };
  for (size_t begin = 0; begin < num_ranks;) {
    const size_t end = std::min(begin + batch_size, num_ranks);
    // Collect this batch's BFS hubs.
    size_t num_hubs = 0;
    for (size_t r = begin; r < end; ++r) {
      Vertex v = builder.VertexAt(static_cast<Rank>(r));
      if (builder.IsHub(v)) {
        staged[num_hubs++].Reset(static_cast<Rank>(r), v);
      }
    }
    // Stage in parallel against the committed labels: item i is the
    // forward (even i) or backward (odd i) pass of hub i / 2. Only a later
    // hub of the batch validates against a pass, so the batch's last hub
    // never sorts its events.
    auto stage_start = now();
    const size_t num_passes = 2 * num_hubs;
    auto stage = [&](size_t i, unsigned t) {
      auto pass_start = now();
      StagedHub& sh = staged[i / 2];
      const bool forward = i % 2 == 0;
      builder.StagePass(sh, forward, scratch[t]);
      if (i / 2 + 1 < num_hubs) (forward ? sh.fwd : sh.bwd).Finalize();
      pass_s[i] = secs(pass_start, now());
    };
    if (pool) {
      std::atomic<size_t> next{0};
      const unsigned workers =
          static_cast<unsigned>(std::min<size_t>(num_threads, num_passes));
      for (unsigned t = 0; t < workers; ++t) {
        pool->Submit([&stage, &next, num_passes, t] {
          for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= num_passes) return;
            stage(i, t);
          }
        });
      }
      pool->Wait();
    } else {
      for (size_t i = 0; i < num_passes; ++i) stage(i, 0);
    }
    if (debug && num_hubs > 0) {
      const double stage_s = secs(stage_start, now());
      debug_stage_s += stage_s;
      const size_t b = std::bit_width(num_hubs - 1);
      if (debug_buckets.size() <= b) debug_buckets.resize(b + 1);
      StageBucket& bucket = debug_buckets[b];
      ++bucket.batches;
      bucket.hubs += num_hubs;
      bucket.stage_s += stage_s;
      double longest = 0;
      for (size_t i = 0; i < num_passes; ++i) {
        bucket.pass_s += pass_s[i];
        longest = std::max(longest, pass_s[i]);
      }
      bucket.longest_s += longest;
    }
    // Commit serially in rank order.
    size_t idx = 0;
    size_t dirty_in_batch = 0;
    for (size_t r = begin; r < end; ++r) {
      Vertex v = builder.VertexAt(static_cast<Rank>(r));
      if (!builder.IsHub(v)) {
        builder.CommitNonHub(static_cast<Rank>(r), v);
        continue;
      }
      StagedHub& sh = staged[idx];
      ++debug_hubs;
      debug_staged_deq += sh.fwd.dequeued + sh.bwd.dequeued;
      auto validate_start = now();
      PassValidation validation;
      if (builder.distance_pruning()) {
        validation = ValidateStagedHub(builder, staged, idx);
      }
      debug_validate_s += secs(validate_start, now());
      if (!validation.fwd_clean || !validation.bwd_clean) {
        ++debug_dirty;
        ++dirty_in_batch;
        // Dirty: a same-batch higher hub would have pruned this BFS
        // somewhere. Re-staging the dirty pass against the now-current
        // labels is exactly the sequential pass with its appends deferred
        // (a pass's own appends never influence its own checks), so
        // committing the re-staged events restores bit-identical output —
        // and keeps the corrected events visible to later hubs'
        // validations. The clean pass's staging is already sequential and
        // is kept as-is.
        auto rerun_start = now();
        const bool validated_later = idx + 1 < num_hubs;
        if (!validation.fwd_clean) {
          sh.fwd.Clear();
          builder.StagePass(sh, /*forward=*/true, scratch[0]);
          if (validated_later) sh.fwd.Finalize();
          debug_rerun_deq += sh.fwd.dequeued;
        }
        if (!validation.bwd_clean) {
          sh.bwd.Clear();
          builder.StagePass(sh, /*forward=*/false, scratch[0]);
          if (validated_later) sh.bwd.Finalize();
          debug_rerun_deq += sh.bwd.dequeued;
        }
        debug_rerun_s += secs(rerun_start, now());
      }
      auto replay_start = now();
      builder.Commit(sh);
      debug_replay_s += secs(replay_start, now());
      ++idx;
    }
    begin = end;
    // Adapt: a re-run means same-batch hubs still cover each other's
    // shortest paths, and a dirty high-rank hub is expensive twice (a
    // near-unpruned staged BFS thrown away, then a serialized re-run) — so
    // drop straight back to singleton batches on any re-run and double
    // toward the cap while batches come back clean.
    batch_size =
        dirty_in_batch > 0 ? 1 : std::min(batch_size * 2, kMaxBatchRanks);
  }
  if (debug) {
    std::fprintf(stderr,
                 "[parallel_build] hubs=%zu dirty=%zu staged_deq=%zu "
                 "rerun_deq=%zu stage=%.3fs validate=%.3fs rerun=%.3fs "
                 "replay=%.3fs\n",
                 debug_hubs, debug_dirty, debug_staged_deq, debug_rerun_deq,
                 debug_stage_s, debug_validate_s, debug_rerun_s,
                 debug_replay_s);
    for (size_t b = 0; b < debug_buckets.size(); ++b) {
      const StageBucket& bucket = debug_buckets[b];
      if (bucket.batches == 0) continue;
      std::fprintf(stderr,
                   "[parallel_build]   batch<=%zu hubs: batches=%zu hubs=%zu "
                   "stage=%.3fs passes=%.3fs longest=%.3fs\n",
                   size_t{1} << b, bucket.batches, bucket.hubs,
                   bucket.stage_s, bucket.pass_s, bucket.longest_s);
    }
  }
}

}  // namespace csc

#endif  // CSC_LABELING_PARALLEL_BUILD_H_
