#ifndef CSC_LABELING_PARALLEL_BUILD_H_
#define CSC_LABELING_PARALLEL_BUILD_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/ordering.h"
#include "labeling/hub_labeling.h"
#include "labeling/hub_row.h"
#include "util/common.h"
#include "util/page_allocator.h"
#include "util/thread_pool.h"

namespace csc {

/// Parallel hub-labeling construction in two phases.
///
/// The sequential builders (Algorithm 3 and the plain HP-SPC pass) process
/// hubs strictly in rank order because every pruned BFS consults the labels
/// of all higher-ranked hubs. This framework recovers parallelism without
/// giving up that order — or bit-identical output.
///
/// **Phase 1: level-split passes of the top hubs.** The top-ranked hubs
/// run the largest BFSs of the build and prune each other too much to
/// batch. So they run one hub at a time, in rank order, as the sequential
/// builder runs them: against every committed label, appending their
/// entries as they go, with no staging, validation, re-run or replay. The
/// workers share each hub's two passes instead: the passes run side by
/// side, and the frontier of every BFS level is split across the workers,
/// as in level-synchronous parallel BFS (Beamer, Asanović & Patterson, SC
/// 2012); see LevelSplitBfs. The phase ends after the first hub with a pass
/// that dequeues fewer than kSplitHandOverDequeues vertices, a property of
/// the input alone.
///
/// **Phase 2: rank batches** for the remaining hubs:
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
///      events replay into label appends verbatim. A *dirty* pass re-runs,
///      level-split (both passes side by side if both are dirty), against
///      the now-current labels — which IS the sequential pass with its
///      appends deferred — and commits that.
///      Either way the labeling after every batch equals the sequential
///      builder's, so the final index is bit-identical at any thread count,
///      and so are the build stats (canonical/non-canonical classification
///      re-derives from via_seq).
///
/// Batch sizes adapt to the dirty rate, from 1 up to `kMaxBatchRanks`
/// ranks (so at most 32 CSC hubs: out-vertices root no BFS): a batch that
/// re-ran any pass drops the next batch back to a singleton, a fully clean
/// batch doubles toward the cap. The schedule of both phases depends only
/// on pass results — which are schedule-independent — never on the thread
/// count, so the committed work, and therefore the stats, are identical for
/// any number of workers.
///
/// Concurrency contract (why this file carries no CSC_GUARDED_BY
/// annotations): there is no mutex-protected shared state. A staging
/// worker claims staged-pass slots through a single atomic counter, writes
/// only its claimed `StagedPass` and its own scratch, and reads only labels
/// committed by earlier batches — immutable for the duration of the stage;
/// the Crew's release/acquire handoff orders every staged write before the
/// serial commit loop reads them. A level-split run's workers share only
/// atomics, the level bounds its barrier publishes, and the label sets of
/// the vertices each of them dequeued (see LevelSplitBfs). A label set
/// grows on the calling thread only: a pool thread appends only where the
/// set's capacity has room (LabelSet::TryAppend), so no set's buffer comes
/// from a pool thread's malloc arena, where it would stay after the build.
/// The TSan CI job runs the determinism suite over every handoff at 1..8
/// workers.
inline constexpr size_t kMaxBatchRanks = 64;

/// Phase 1 runs while every pass dequeues at least this many vertices. On
/// WKT@0.5 that is the top 127 hubs: below them, passes are too small to
/// split well, and rank batches of them stage side by side instead.
inline constexpr uint64_t kSplitHandOverDequeues = 1024;

/// A BFS level with fewer vertices runs as one chunk on one worker; a
/// larger one is claimed in chunks of kSplitChunk vertices.
inline constexpr size_t kSplitMinLevel = 128;
inline constexpr size_t kSplitChunk = 32;

/// One pruned counting BFS: hub `hub` of rank `rank`, forward (appending
/// in-labels) or backward (appending out-labels).
struct PassKey {
  Rank rank = 0;
  Vertex hub = 0;
  bool forward = true;
};

/// One labeled dequeue of a pruned BFS pass: vertex, BFS distance, path
/// multiplicity, and the distance-pruning join it observed (kInfDist when
/// pruning is disabled or no common hub existed).
struct StagedEvent {
  Vertex w = 0;
  Dist dist = 0;
  Count count = 0;
  Dist via_dist = kInfDist;
};

/// The events of one pass as a growing buffer. Pool threads grow these, so
/// they take PageAllocator: the build's end then returns them to the system
/// instead of leaving them in those threads' malloc arenas.
using EventBuffer = std::vector<StagedEvent, PageAllocator<StagedEvent>>;

/// One staged (forward or backward) pass of one hub: the labeled dequeues in
/// BFS order plus the pass's work counters, and a sorted (vertex -> dist)
/// view of the events for the batch-local validation joins, built only for
/// the passes a later hub of the batch validates against.
struct StagedPass {
  EventBuffer events;
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

/// The two staged passes of one batch hub, and what they give the label
/// sets of each later hub i of the batch, for its validation:
/// new_out[i] = NewOutDist(*this, hub i) and new_in[i] = NewInDist (see
/// ValidateStagedHub).
struct StagedHub {
  Rank rank = 0;
  Vertex hub = 0;
  StagedPass fwd;
  StagedPass bwd;
  std::array<Dist, kMaxBatchRanks> new_out;
  std::array<Dist, kMaxBatchRanks> new_in;

  void Reset(Rank r, Vertex v) {
    rank = r;
    hub = v;
    fwd.Clear();
    bwd.Clear();
  }
};

/// Per-worker BFS scratch, sized once so a pass never grows it on a pool
/// thread: distance and path count per vertex (kInfDist and 0 between
/// passes), the pass's queue (every vertex it reached, so also the reset
/// list), and the hub row of the pruning joins.
struct BfsScratch {
  std::vector<Dist> dist;
  std::vector<Count> count;
  std::vector<Vertex> queue;
  HubRow row;

  explicit BfsScratch(size_t num_vertices)
      : dist(num_vertices, kInfDist), count(num_vertices, 0),
        row(num_vertices) {
    queue.reserve(num_vertices);
  }
};

/// The frontier a builder's Visit hook feeds in a sequential pass (a FIFO
/// queue; see StagePass). A builder's Visit(pass, w, dist, count, row, f)
/// handles one dequeue of w: it either calls f.Prune(), or calls
/// f.Label(event) and then f.Relax(wn, dist', count) for each neighbor the
/// pass may enter (rank pruning is the builder's check).
struct SerialFrontier {
  BfsScratch& s;
  StagedPass& out;

  void Prune() { ++out.pruned; }
  void Label(const StagedEvent& e) { out.events.push_back(e); }
  void Relax(Vertex wn, Dist nd, Count c) {
    if (s.dist[wn] == kInfDist) {
      s.dist[wn] = nd;
      s.count[wn] = c;
      s.queue.push_back(wn);
    } else if (s.dist[wn] == nd) {
      s.count[wn] += c;
    }
  }
};

/// Runs pass `p` on one thread against the current labels, recording its
/// labeled dequeues into `out` (without Finalize) instead of appending.
template <typename Builder>
void StagePass(const Builder& builder, const PassKey& p, BfsScratch& s,
               StagedPass& out) {
  const LabelSet* row_set = builder.LoadRow(p, s.row);
  const std::vector<LabelSet>& joined = builder.JoinedSets(p.forward);
  s.queue.clear();
  s.dist[p.hub] = 0;
  s.count[p.hub] = 1;
  s.queue.push_back(p.hub);
  SerialFrontier frontier{s, out};
  for (size_t head = 0; head < s.queue.size();) {
    Vertex w = DequeueAndPrefetch(s.queue, head, joined, Builder::kJoinShift);
    ++out.dequeued;
    builder.Visit(p, w, s.dist[w], s.count[w], s.row, frontier);
  }
  for (Vertex v : s.queue) {
    s.dist[v] = kInfDist;
    s.count[v] = 0;
  }
  if (row_set != nullptr) s.row.Clear(*row_set);
}

/// Appends the labels of `events`, from pass `p`, in order, each after
/// prefetching for later ones: the target set's header 2 * kJoinLookAhead
/// events ahead, its append slot kJoinLookAhead ahead.
template <typename Builder>
void AppendEvents(const Builder& builder, const PassKey& p,
                  std::span<const StagedEvent> events) {
  for (size_t i = 0; i < events.size(); ++i) {
    if (i + 2 * kJoinLookAhead < events.size()) {
      const LabelSet* ahead = builder.Target(p, events[i + 2 * kJoinLookAhead]);
      if (ahead != nullptr) __builtin_prefetch(ahead, 1);
    }
    if (i + kJoinLookAhead < events.size()) {
      const LabelSet* ahead = builder.Target(p, events[i + kJoinLookAhead]);
      if (ahead != nullptr) {
        __builtin_prefetch(ahead->entries().data() + ahead->size(), 1);
      }
    }
    const StagedEvent& e = events[i];
    if (LabelSet* set = builder.Target(p, e)) {
      set->Append(LabelEntry(p.rank, e.dist, e.count));
    }
  }
}

/// A spin-wait hint to the core.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// A barrier for a fixed set of threads that spins before it sleeps: a
/// level-split pass crosses one per BFS level, and a futex wake would cost
/// more than a small level's work. A waiting thread calls `idle()` between
/// spins (it returns whether it found work to do); after kSpins idle spins
/// in a row it sleeps (std::atomic::wait), so a descheduled thread does not
/// leave the others burning the CPUs it needs. The last thread to arrive
/// runs `complete` before it releases the others, so whatever `complete`
/// writes is visible to every thread after the barrier.
class SpinBarrier {
 public:
  /// Sets the number of threads; call only while no thread is waiting.
  void Reset(unsigned participants) { participants_ = participants; }

  template <typename Complete, typename Idle>
  void ArriveAndWait(Complete&& complete, Idle&& idle) {
    const uint32_t generation = generation_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        participants_) {
      arrived_.store(0, std::memory_order_relaxed);
      complete();
      generation_.store(generation + 1, std::memory_order_release);
      generation_.notify_all();  // no system call unless a thread sleeps
      return;
    }
    for (unsigned spins = 0;
         generation_.load(std::memory_order_acquire) == generation; ++spins) {
      if (idle()) {
        spins = 0;
      } else if (spins < kSpins) {
        CpuRelax();
      } else {
        generation_.wait(generation, std::memory_order_acquire);
      }
    }
  }

  /// Idle spins of a waiting thread before it sleeps: about 100 µs.
  static constexpr unsigned kSpins = 2000;

 private:
  unsigned participants_ = 1;
  std::atomic<unsigned> arrived_{0};
  std::atomic<uint32_t> generation_{0};
};

/// Pool workers that stay in one submitted task across many short jobs, so
/// a job costs two atomic handoffs rather than a pool dispatch and wake-up
/// per worker: phase 2 stages each of its many small batches this way. The
/// workers spin, then sleep (std::atomic::wait), between jobs. Stop() lets
/// them return, which must happen before anything else is submitted to the
/// pool; the next Run() submits them again.
class Crew {
 public:
  /// A crew of `size` workers: the calling thread and size - 1 pool tasks.
  Crew(ThreadPool* pool, unsigned size)
      : pool_(pool), size_(size), errors_(size) {}
  ~Crew() { Stop(); }

  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  /// Runs job(t) for t in [0, size), t = 0 on the calling thread, and
  /// returns once every call has; rethrows the first exception one threw.
  template <typename Job>
  void Run(Job& job) {
    if (size_ > 1 && !running_) Start();
    job_ = std::ref(job);  // held by reference: nothing to allocate
    finished_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();  // no system call unless a worker sleeps
    std::exception_ptr error;
    try {
      job(0);
    } catch (...) {
      error = std::current_exception();
    }
    unsigned spins = 0;
    for (unsigned done; (done = finished_.load(std::memory_order_acquire)) !=
                        size_ - 1;) {
      if (++spins < SpinBarrier::kSpins) {
        CpuRelax();
      } else {
        finished_.wait(done, std::memory_order_acquire);
      }
    }
    for (std::exception_ptr& e : errors_) {
      if (e && !error) error = e;
      e = nullptr;
    }
    if (error) std::rethrow_exception(error);
  }

  /// Lets the pool tasks return; a no-op if none runs.
  void Stop() {
    if (!running_) return;
    stop_ = true;
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    pool_->Wait();
    stop_ = false;
    running_ = false;
  }

 private:
  void Start() {
    running_ = true;
    const uint32_t seen = generation_.load(std::memory_order_relaxed);
    for (unsigned t = 1; t < size_; ++t) {
      pool_->Submit([this, t, seen] { Loop(t, seen); });
    }
  }

  void Loop(unsigned t, uint32_t seen) {
    for (;;) {
      unsigned spins = 0;
      for (uint32_t now; (now = generation_.load(std::memory_order_acquire)) ==
                         seen;) {
        if (++spins < SpinBarrier::kSpins) {
          CpuRelax();
        } else {
          generation_.wait(now, std::memory_order_acquire);
        }
      }
      ++seen;  // the caller publishes one job at a time
      if (stop_) return;
      try {
        job_(t);
      } catch (...) {
        errors_[t] = std::current_exception();
      }
      if (finished_.fetch_add(1, std::memory_order_acq_rel) + 1 == size_ - 1) {
        finished_.notify_one();
      }
    }
  }

  ThreadPool* const pool_;
  const unsigned size_;
  bool running_ = false;
  // Written by the calling thread before it bumps generation_, read by the
  // workers after they see the bump.
  bool stop_ = false;
  std::function<void(unsigned)> job_;
  std::atomic<uint32_t> generation_{0};
  std::atomic<unsigned> finished_{0};
  std::vector<std::exception_ptr> errors_;  // by worker; read after a job
};

/// Level-synchronous pruned counting BFS: one or two passes at a time, with
/// the frontier of each BFS level split across the pool's workers while the
/// calling thread takes in what they label. Two passes run together only if
/// they are the forward and backward passes of one hub: those read only
/// labels committed before the hub and disjoint label sets (L_in(w) forward,
/// L_out(w) backward), and each loads its hub row before either appends, so
/// they run side by side as staging runs them. Each level of the combined
/// run is then the union of the two passes' levels. The result equals the
/// sequential passes' events and counters:
///   - the sequential pass dequeues a whole level before the next, so a
///     vertex's distance and path count are final once the level above it
///     has been expanded;
///   - the pruning joins are read-only: each pass's hub row is loaded once
///     by the calling thread, and a dequeue joins only its own vertex's
///     label set, which is appended to only after that join (each vertex is
///     dequeued once per pass);
///   - a newly reached vertex's distance is claimed by compare-and-swap, so
///     one worker enqueues it, and path counts are summed with relaxed
///     atomic adds, which commute, so the sums are exact;
///   - each worker counts its own dequeues and prunes.
/// Pass i keeps its distances, counts and hub row in scratch[i].
///
/// The calling thread runs levels of fewer than kSplitMinLevel vertices
/// alone until the first larger one, so a run with no large level never
/// pays a pool dispatch. From there on the pool's workers (scratch.size()
/// - 1 of them, one submitted task each) join it for the rest of the run:
/// each pass's level is claimed in chunks of kSplitChunk vertices, or as one
/// chunk if the level is small, and the workers meet at a SpinBarrier after
/// every level.
///
/// Commit (phase 1) appends each label as the pass finds it. A pool worker
/// appends in place when the set has room and otherwise publishes the event,
/// in a buffer reserved for the whole build, for the calling thread to
/// append; the calling thread does that before it claims each chunk and
/// while it waits at a barrier, so label sets grow on the calling thread
/// only. Stage (phase 2's re-runs) publishes every labeled dequeue and
/// collects them into StagedPasses.
template <typename Builder>
class LevelSplitBfs {
 public:
  struct Counts {
    uint64_t dequeued = 0;
    uint64_t pruned = 0;
  };
  using PassCounts = std::array<Counts, 2>;

  /// One worker per entry of `scratch`: the calling thread and, through
  /// `pool` (null for one worker), scratch.size() - 1 others. The pool must
  /// have that many threads and be otherwise idle while a run works.
  LevelSplitBfs(const Builder& builder, ThreadPool* pool,
                std::vector<BfsScratch>& scratch, bool timed)
      : builder_(builder),
        pool_(pool),
        scratch_(scratch),
        num_vertices_(scratch[0].dist.size()),
        workers_(scratch.size()),
        timed_(timed) {
    // A pass reaches and labels each vertex at most once. The buffers are
    // mapped, not touched, here: what stays resident is what a run writes.
    for (Slot& s : slots_) s.frontier = Allocate<Vertex>();
    for (Worker& w : workers_) {
      for (WorkerSlot& ws : w.slots) ws.events = Allocate<StagedEvent>();
    }
  }

  ~LevelSplitBfs() {
    for (Slot& s : slots_) Free(s.frontier);
    for (Worker& w : workers_) {
      for (WorkerSlot& ws : w.slots) Free(ws.events);
    }
  }

  LevelSplitBfs(const LevelSplitBfs&) = delete;
  LevelSplitBfs& operator=(const LevelSplitBfs&) = delete;

  /// Runs `passes` (one pass, or the two passes of one hub) against the
  /// current labels and appends their labels as the sequential builder
  /// does, adding their entry counters to `stats`. Returns each pass's
  /// dequeue and prune counts.
  PassCounts Commit(std::span<const PassKey> passes, LabelBuildStats& stats) {
    commit_ = &stats;
    return Run(passes, [&](size_t i, std::span<const StagedEvent> events) {
      AppendEvents(builder_, passes[i], events);
    });
  }

  /// Runs `passes` against the current labels, recording the labeled
  /// dequeues of passes[i] into `out[i]` (without Finalize) instead.
  PassCounts Stage(std::span<const PassKey> passes, StagedPass* const out[]) {
    commit_ = nullptr;
    return Run(passes, [&](size_t i, std::span<const StagedEvent> events) {
      out[i]->events.insert(out[i]->events.end(), events.begin(),
                            events.end());
    });
  }

  /// Levels run split across workers, and on one worker, by every Run so
  /// far (a level of a two-pass run counts once).
  size_t levels_split() const { return levels_split_; }
  size_t levels_single() const { return levels_single_; }
  /// Seconds the calling thread spent taking in other workers' events in
  /// all, and while it waited for them at a barrier (only with `timed`).
  double sink_s() const { return sink_s_ + waiting_sink_s_; }
  double waiting_sink_s() const { return waiting_sink_s_; }

 private:
  // `sink(i, events)` takes in the events of passes[i] that workers
  // publish: all labeled dequeues when staging, only the appends a worker
  // could not make in place when committing.
  template <typename Sink>
  PassCounts Run(std::span<const PassKey> passes, Sink&& sink) {
    if (passes.size() <= scratch_.size()) return RunTogether(passes, sink);
    PassCounts total;  // one worker: one pass at a time
    for (size_t i = 0; i < passes.size(); ++i) {
      auto sink_i = [&](size_t, std::span<const StagedEvent> events) {
        sink(i, events);
      };
      total[i] = RunTogether(passes.subspan(i, 1), sink_i)[0];
    }
    return total;
  }

  template <typename Sink>
  PassCounts RunTogether(std::span<const PassKey> passes, Sink& sink) {
    PassCounts total;
    num_slots_ = passes.size();
    for (size_t i = 0; i < num_slots_; ++i) {
      Slot& s = slots_[i];
      BfsScratch& shared = scratch_[i];
      s.key = passes[i];
      s.row_set = builder_.LoadRow(s.key, shared.row);
      shared.dist[s.key.hub] = 0;
      shared.count[s.key.hub] = 1;
      s.frontier[0] = s.key.hub;
      s.tail.store(1, std::memory_order_relaxed);
      s.lo = s.hi = 0;
    }
    for (Worker& w : workers_) {
      for (WorkerSlot& ws : w.slots) {
        ws.size = 0;
        ws.consumed = 0;
        ws.published.store(0, std::memory_order_relaxed);
      }
    }
    failed_.store(false, std::memory_order_relaxed);
    NextLevel();
    std::exception_ptr error;
    scratch_[0].queue.clear();  // may hold a staged pass's vertices
    bool dispatched = false;
    while (LevelSize() > 0) {
      if (pool_ != nullptr && workers_.size() > 1 &&
          LevelSize() >= kSplitMinLevel) {
        Dispatch();
        dispatched = true;
        // The calling thread joins too, and hands events to the sink after
        // each of its chunks and while it waits at a barrier.
        auto drain = [&](double& seconds) {
          if (error) return false;
          try {
            return DrainOnce(sink, seconds);
          } catch (...) {
            error = std::current_exception();
            failed_.store(true, std::memory_order_relaxed);
            return false;
          }
        };
        WorkLevels(
            0, [&] { return drain(sink_s_); },
            [&] { return drain(waiting_sink_s_); });
        drain(sink_s_);
        pool_->Wait();
        break;
      }
      ++levels_single_;
      JoinLevel<false>(0, [] { return false; });
      DrainOnce(sink, sink_s_);
      NextLevel();
    }
    if (!dispatched) ResetShare(0, 1);
    for (Worker& w : workers_) {
      for (size_t i = 0; i < num_slots_; ++i) {
        total[i].dequeued += w.slots[i].counts.dequeued;
        total[i].pruned += w.slots[i].counts.pruned;
        w.slots[i].counts = {};
      }
      if (commit_ != nullptr) {
        commit_->entries += w.entries.entries;
        commit_->canonical_entries += w.entries.canonical_entries;
        commit_->non_canonical_entries += w.entries.non_canonical_entries;
      }
      w.entries = {};
      if (w.error && !error) error = w.error;
      w.error = nullptr;
    }
    for (size_t i = 0; i < num_slots_; ++i) {
      if (slots_[i].row_set != nullptr) {
        scratch_[i].row.Clear(*slots_[i].row_set);
      }
    }
    if (error) std::rethrow_exception(error);
    return total;
  }

  // One pass of a run. The current level is frontier[lo, hi) and the next
  // one grows from hi to tail. lo, hi and chunk change only in NextLevel:
  // on the calling thread before the pool is dispatched, then on the last
  // worker to reach each barrier.
  struct Slot {
    PassKey key;
    const LabelSet* row_set = nullptr;
    Vertex* frontier = nullptr;
    size_t lo = 0, hi = 0, chunk = 1;
    std::atomic<size_t> tail{0};
    // The next unclaimed index of the level, on a cache line of its own.
    alignas(64) std::atomic<size_t> cursor{0};
  };

  // One worker's share of one pass.
  struct WorkerSlot {
    // The worker's own: written on every dequeue.
    StagedEvent* events = nullptr;
    size_t size = 0;
    Counts counts;
    // What the calling thread polls, on a cache line of its own so that
    // polling does not steal the line above from the worker.
    alignas(64) std::atomic<size_t> published{0};
    size_t consumed = 0;  // by the calling thread's drain
  };

  struct alignas(64) Worker {
    WorkerSlot slots[2];
    LabelBuildStats entries;  // the entry counters of its in-place appends
    std::exception_ptr error;
  };

  // The frontier as the builders' Visit hooks feed it; `kShared` while
  // other workers run, so that distances and counts take atomics. When
  // committing, a worker appends a label itself if the set has room (the
  // calling thread, `may_grow`, always does); otherwise it publishes the
  // event for the calling thread to append, so that only the calling
  // thread grows label sets.
  template <bool kShared>
  struct SplitFrontier {
    const Builder& builder;
    const PassKey& key;
    Dist* dist;
    Count* count;
    std::vector<Vertex>& found;
    WorkerSlot& out;
    LabelBuildStats* entries;  // null when staging
    bool may_grow;

    void Prune() { ++out.counts.pruned; }
    void Label(const StagedEvent& e) {
      if (entries != nullptr) {
        builder.CountEvent(key, e, *entries);
        LabelSet* set = builder.Target(key, e);
        if (set == nullptr) return;
        const LabelEntry entry(key.rank, e.dist, e.count);
        if (may_grow) {
          set->Append(entry);
          return;
        }
        if (set->TryAppend(entry)) return;
      }
      std::construct_at(out.events + out.size++, e);
    }
    void Relax(Vertex wn, Dist nd, Count c) {
      if constexpr (!kShared) {
        if (dist[wn] == kInfDist) {
          dist[wn] = nd;
          count[wn] = c;
          found.push_back(wn);
        } else if (dist[wn] == nd) {
          count[wn] += c;
        }
        return;
      }
      std::atomic_ref<Dist> d(dist[wn]);
      Dist seen = d.load(std::memory_order_relaxed);
      if (seen == kInfDist &&
          d.compare_exchange_strong(seen, nd, std::memory_order_relaxed)) {
        found.push_back(wn);
        seen = nd;
      }
      if (seen == nd) {
        std::atomic_ref<Count>(count[wn]).fetch_add(
            c, std::memory_order_relaxed);
      }
    }
  };

  template <typename T>
  T* Allocate() {
    return PageAllocator<T>().allocate(num_vertices_);
  }
  template <typename T>
  void Free(T* p) {
    PageAllocator<T>().deallocate(p, num_vertices_);
  }

  size_t LevelSize() const {
    size_t size = 0;
    for (size_t i = 0; i < num_slots_; ++i) size += slots_[i].hi - slots_[i].lo;
    return size;
  }

  void Dispatch() {
    ++levels_split_;
    const unsigned workers = static_cast<unsigned>(workers_.size());
    barrier_.Reset(workers);
    for (unsigned t = 1; t < workers; ++t) {
      pool_->Submit([this, t] {
        WorkLevels(t, [] { return false; }, [] { return false; });
      });
    }
  }

  // Hands every event published since the last call to `sink`; returns
  // whether there were any. With `timed`, adds the time to `seconds`.
  template <typename Sink>
  bool DrainOnce(Sink& sink, double& seconds) {
    bool any = false;
    for (Worker& w : workers_) {
      for (size_t i = 0; i < num_slots_; ++i) {
        WorkerSlot& ws = w.slots[i];
        const size_t published = ws.published.load(std::memory_order_acquire);
        if (published == ws.consumed) continue;
        const auto start = timed_ ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};
        sink(i, std::span<const StagedEvent>(ws.events + ws.consumed,
                                             published - ws.consumed));
        if (timed_) {
          seconds += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
        }
        ws.consumed = published;
        any = true;
      }
    }
    return any;
  }

  // Worker t's share of the rest of the run, from the current level on.
  // `before_chunk()` and `idle()` are the worker's other work: it repeats
  // `before_chunk()` until that returns false before it claims each chunk,
  // and calls `idle()` while it waits at a barrier.
  template <typename BeforeChunk, typename Idle>
  void WorkLevels(unsigned t, BeforeChunk&& before_chunk, Idle&& idle) {
    scratch_[t].queue.clear();  // may hold a staged pass's vertices
    for (;;) {
      try {
        JoinLevel<true>(t, before_chunk);
      } catch (...) {
        if (!workers_[t].error) workers_[t].error = std::current_exception();
        failed_.store(true, std::memory_order_relaxed);
        scratch_[t].queue.clear();
      }
      barrier_.ArriveAndWait(
          [this] {
            NextLevel();
            const size_t size = LevelSize();
            if (size > 0) {
              ++(size >= kSplitMinLevel ? levels_split_ : levels_single_);
            }
          },
          idle);
      if (LevelSize() == 0) break;
    }
    ResetShare(t, workers_.size());
  }

  // For each pass, claims chunks of its level until none is left, then adds
  // the vertices they reached to its frontier. Before each claim it repeats
  // `before_chunk()` until that returns false.
  template <bool kShared, typename BeforeChunk>
  void JoinLevel(unsigned t, BeforeChunk&& before_chunk) {
    std::vector<Vertex>& found = scratch_[t].queue;
    for (size_t i = 0; i < num_slots_; ++i) {
      Slot& s = slots_[i];
      BfsScratch& shared = scratch_[i];
      WorkerSlot& out = workers_[t].slots[i];
      const std::vector<LabelSet>& joined = builder_.JoinedSets(s.key.forward);
      LabelBuildStats* entries =
          commit_ != nullptr ? &workers_[t].entries : nullptr;
      SplitFrontier<kShared> frontier{builder_, s.key, shared.dist.data(),
                                      shared.count.data(), found, out,
                                      entries, /*may_grow=*/t == 0};
      for (;;) {
        while (before_chunk()) {
        }
        const size_t begin =
            s.cursor.fetch_add(s.chunk, std::memory_order_relaxed);
        if (begin >= s.hi) break;
        // Prefetch within the chunk only: the calling thread may be
        // appending to the sets of vertices other workers have dequeued.
        const std::span<const Vertex> chunk(
            s.frontier + begin, std::min(begin + s.chunk, s.hi) - begin);
        for (size_t head = 0; head < chunk.size();) {
          Vertex w =
              DequeueAndPrefetch(chunk, head, joined, Builder::kJoinShift);
          ++out.counts.dequeued;
          Dist d = shared.dist[w];
          Count c = shared.count[w];
          if constexpr (kShared) {
            d = std::atomic_ref<Dist>(shared.dist[w])
                    .load(std::memory_order_relaxed);
            c = std::atomic_ref<Count>(shared.count[w])
                    .load(std::memory_order_relaxed);
          }
          builder_.Visit(s.key, w, d, c, shared.row, frontier);
        }
        out.published.store(out.size, std::memory_order_release);
      }
      if (!found.empty()) {
        const size_t at =
            s.tail.fetch_add(found.size(), std::memory_order_relaxed);
        std::copy(found.begin(), found.end(), s.frontier + at);
        found.clear();
      }
    }
  }

  // Moves every pass to its next level: the vertices its last one reached.
  void NextLevel() {
    const bool failed = failed_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < num_slots_; ++i) {
      Slot& s = slots_[i];
      s.lo = s.hi;
      s.hi = failed ? s.lo : s.tail.load(std::memory_order_relaxed);
      const size_t size = s.hi - s.lo;
      s.chunk = size < kSplitMinLevel ? std::max<size_t>(size, 1) : kSplitChunk;
      s.cursor.store(s.lo, std::memory_order_relaxed);
    }
  }

  // Restores share `k` of `shares` of every reached vertex's distance and
  // count for the next run.
  void ResetShare(size_t k, size_t shares) {
    for (size_t i = 0; i < num_slots_; ++i) {
      const Slot& s = slots_[i];
      BfsScratch& shared = scratch_[i];
      const size_t reached = s.tail.load(std::memory_order_relaxed);
      const size_t begin = reached * k / shares;
      const size_t end = reached * (k + 1) / shares;
      for (size_t j = begin; j < end; ++j) {
        shared.dist[s.frontier[j]] = kInfDist;
        shared.count[s.frontier[j]] = 0;
      }
    }
  }

  const Builder& builder_;
  ThreadPool* const pool_;
  std::vector<BfsScratch>& scratch_;
  const size_t num_vertices_;
  Slot slots_[2];
  size_t num_slots_ = 1;
  std::vector<Worker> workers_;
  SpinBarrier barrier_;
  std::atomic<bool> failed_{false};
  const bool timed_;
  size_t levels_split_ = 0, levels_single_ = 0;
  double sink_s_ = 0, waiting_sink_s_ = 0;
  LabelBuildStats* commit_ = nullptr;  // Commit's, while it runs
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

/// The entries lower-ranked batch hubs added to one hub's own label sets,
/// as (batch index, distance): ValidateStagedHub's working lists, kept
/// across hubs so a hub that gets entries does not allocate them afresh.
struct BatchEntries {
  std::vector<std::pair<size_t, Dist>> new_out;  // -> L_out(hub)
  std::vector<std::pair<size_t, Dist>> new_in;   // -> L_in(hub)
};

/// Notes, after the forward (`forward`) or backward pass of batch hub
/// `staged[idx]` is final, what it gives the label sets of each later batch
/// hub: new_in or new_out of staged[idx], for ValidateStagedHub. Runs on the
/// worker that staged the pass. `builder` supplies the two label-placement
/// rules that differ between the plain and couple-skip constructions:
///   NewOutDist(lower, hub): distance of the entry `lower`'s backward pass
///     gives L_out(hub) as the hub's pruning row reads it, or kInfDist. The
///     plain builder appends that entry; the couple-skip builder appends
///     only its couple's entry to L_out(couple(hub)) and reads the row
///     shifted from there;
///   NewInDist(lower, hub): ditto for `lower`'s forward pass and L_in(hub).
template <typename Builder>
void NoteLaterHubs(const Builder& builder, std::vector<StagedHub>& staged,
                   size_t idx, size_t num_hubs, bool forward) {
  StagedHub& sh = staged[idx];
  for (size_t i = idx + 1; i < num_hubs; ++i) {
    if (forward) {
      sh.new_in[i] = builder.NewInDist(sh, staged[i].hub);
    } else {
      sh.new_out[i] = builder.NewOutDist(sh, staged[i].hub);
    }
  }
}

/// Validates hub `staged[idx]` against the staged entries of lower-ranked
/// batch hubs `staged[0..idx)`, whose passes are final and noted
/// (NoteLaterHubs), folding the batch-local join into each event's via_dist
/// so commit-time classification sees the sequential value. A pass is dirty
/// if some event the sequential builder would have pruned (via_seq < dist)
/// is found; its partially folded via distances are discarded with the
/// re-run.
inline PassValidation ValidateStagedHub(std::vector<StagedHub>& staged,
                                        size_t idx, BatchEntries& batch) {
  StagedHub& sh = staged[idx];
  PassValidation result;
  // Entries lower-ranked batch hubs added to this hub's own label sets —
  // the only new mass on the hub side of the pruning joins.
  batch.new_out.clear();
  batch.new_in.clear();
  for (size_t j = 0; j < idx; ++j) {
    Dist a = staged[j].new_out[idx];
    if (a != kInfDist) batch.new_out.push_back({j, a});
    Dist c = staged[j].new_in[idx];
    if (c != kInfDist) batch.new_in.push_back({j, c});
  }
  // Forward checks join L_out(hub) x L_in(w): the batch-new part pairs
  // new_out with the lower hub's forward labeling of w.
  if (!batch.new_out.empty()) {
    for (StagedEvent& e : sh.fwd.events) {
      Dist via = e.via_dist;
      for (const auto& [j, a] : batch.new_out) {
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
  if (!batch.new_in.empty()) {
    for (StagedEvent& e : sh.bwd.events) {
      if (e.w == sh.hub) continue;
      Dist via = e.via_dist;
      for (const auto& [j, c] : batch.new_in) {
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

/// Runs the full two-phase build over ranks [0, num_ranks) with
/// `num_threads` workers (callers run the sequential builder for 0 and never
/// pass it), adding every pass's dequeue and prune counts and the phase-1
/// counters to `stats`. `Builder` provides:
///   static constexpr unsigned kJoinShift;  // sets[w >> shift] is w's set
///   size_t num_vertices() const;        // BFS vertex ids are below this
///   Vertex VertexAt(Rank r) const;      // the vertex ranked r
///   bool IsHub(Vertex v) const;         // does this rank root BFSs?
///   void CommitNonHub(Rank, Vertex, LabelBuildStats&);  // e.g. couple
///                                       // self-labels, and their counts
///   bool distance_pruning() const;      // false => staging is always clean
///   const LabelSet* LoadRow(const PassKey&, HubRow&) const;
///       // loads the pass's hub row; returns the set to Clear it with, or
///       // null when the pass joins nothing
///   const std::vector<LabelSet>& JoinedSets(bool forward) const;
///   template <typename Frontier>
///   void Visit(const PassKey&, Vertex w, Dist, Count, const HubRow&,
///              Frontier&) const;        // one dequeue; see SerialFrontier
///   LabelSet* Target(const PassKey&, const StagedEvent&) const;
///       // the set the event's label goes to, or null if it is derived
///   void CountEvent(const PassKey&, const StagedEvent&,
///                   LabelBuildStats&) const;  // the entries it stands for
///   Dist NewOutDist(const StagedHub&, Vertex) const;   // see above
///   Dist NewInDist(const StagedHub&, Vertex) const;
///
/// All but CommitNonHub run concurrently: they read only committed labels
/// and write only their arguments. CommitNonHub runs on the calling thread,
/// in rank order; a label set grows on the calling thread only (a pool
/// thread appends in place, LabelSet::TryAppend, or not at all).
template <typename Builder>
void RunRankBatchedBuild(Builder& builder, size_t num_ranks,
                         unsigned num_threads, LabelBuildStats& stats) {
  // A worker beyond twice the batch cap can never be busy in a batch (a
  // batch stages at most two passes per hub, kMaxBatchRanks hubs), and each
  // worker costs an OS thread plus a full-size BFS scratch — so clamp
  // rather than trust the caller's flag.
  num_threads = static_cast<unsigned>(
      std::min<size_t>(std::max(1u, num_threads), 2 * kMaxBatchRanks));
  // The calling thread is one of the workers, so one worker needs no pool.
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads - 1);
  std::vector<BfsScratch> scratch;
  scratch.reserve(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) {
    scratch.emplace_back(builder.num_vertices());
  }
  std::vector<StagedHub> staged(kMaxBatchRanks);
  BatchEntries batch_entries;

  const bool debug = std::getenv("CSC_PARALLEL_DEBUG") != nullptr;
  LevelSplitBfs<Builder> split(builder, pool.get(), scratch, debug);
  // Clock reads sit inside the serial commit loop; only pay for them when
  // the phase report was asked for.
  auto now = [debug] {
    return debug ? std::chrono::steady_clock::now()
                 : std::chrono::steady_clock::time_point{};
  };
  auto secs = [](auto a, auto b) {
    return std::chrono::duration<double>(b - a).count();
  };
  auto add_counts = [&stats](uint64_t dequeued, uint64_t pruned) {
    stats.vertices_dequeued += dequeued;
    stats.pruned_by_distance += pruned;
  };

  // Phase 1: the top hubs, one at a time, each pass level-split.
  const auto split_start = now();
  size_t begin = 0;
  for (bool hand_over = false; begin < num_ranks && !hand_over; ++begin) {
    const Rank r = static_cast<Rank>(begin);
    const Vertex v = builder.VertexAt(r);
    if (!builder.IsHub(v)) {
      builder.CommitNonHub(r, v, stats);
      continue;
    }
    const PassKey passes[] = {{r, v, true}, {r, v, false}};
    for (const auto& c : split.Commit(passes, stats)) {
      add_counts(c.dequeued, c.pruned);
      hand_over |= c.dequeued < kSplitHandOverDequeues;
    }
    ++stats.split_hubs;
  }
  const double debug_split_s = secs(split_start, now());
  const size_t debug_split_levels = split.levels_split();
  const size_t debug_single_levels = split.levels_single();
  const double debug_append_s = split.sink_s();
  const double debug_waiting_append_s = split.waiting_sink_s();

  // Phase 2: rank batches.
  Crew crew(pool.get(), num_threads);
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
  while (begin < num_ranks) {
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
      StagedPass& pass = forward ? sh.fwd : sh.bwd;
      StagePass(builder, PassKey{sh.rank, sh.hub, forward}, scratch[t], pass);
      if (i / 2 + 1 < num_hubs) {
        pass.Finalize();
        NoteLaterHubs(builder, staged, i / 2, num_hubs, forward);
      }
      pass_s[i] = secs(pass_start, now());
    };
    {
      std::atomic<size_t> next{0};
      auto stage_all = [&stage, &next, num_passes](unsigned t) {
        for (;;) {
          size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= num_passes) return;
          stage(i, t);
        }
      };
      crew.Run(stage_all);
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
        builder.CommitNonHub(static_cast<Rank>(r), v, stats);
        continue;
      }
      StagedHub& sh = staged[idx];
      ++debug_hubs;
      debug_staged_deq += sh.fwd.dequeued + sh.bwd.dequeued;
      auto validate_start = now();
      PassValidation validation;
      if (builder.distance_pruning()) {
        validation = ValidateStagedHub(staged, idx, batch_entries);
      }
      debug_validate_s += secs(validate_start, now());
      if (!validation.fwd_clean || !validation.bwd_clean) {
        ++debug_dirty;
        ++dirty_in_batch;
        // Dirty: a same-batch higher hub would have pruned this BFS
        // somewhere. Re-running the dirty pass against the now-current
        // labels is exactly the sequential pass with its appends deferred
        // (a pass's own appends never influence its own checks), so
        // committing the re-run's events restores bit-identical output —
        // and keeps the corrected events visible to later hubs'
        // validations. The clean pass's staging is already sequential and
        // is kept as-is.
        auto rerun_start = now();
        crew.Stop();  // the re-run dispatches its own pool tasks
        PassKey dirty[2];
        StagedPass* rerun[2];
        size_t num_dirty = 0;
        for (bool forward : {true, false}) {
          if (forward ? validation.fwd_clean : validation.bwd_clean) continue;
          dirty[num_dirty] = PassKey{sh.rank, sh.hub, forward};
          rerun[num_dirty] = forward ? &sh.fwd : &sh.bwd;
          rerun[num_dirty++]->Clear();
        }
        const auto counts =
            split.Stage(std::span<const PassKey>(dirty, num_dirty), rerun);
        for (size_t i = 0; i < num_dirty; ++i) {
          rerun[i]->dequeued = counts[i].dequeued;
          rerun[i]->pruned = counts[i].pruned;
          if (idx + 1 < num_hubs) {
            rerun[i]->Finalize();
            NoteLaterHubs(builder, staged, idx, num_hubs, dirty[i].forward);
          }
          debug_rerun_deq += counts[i].dequeued;
        }
        debug_rerun_s += secs(rerun_start, now());
      }
      auto replay_start = now();
      for (bool forward : {true, false}) {
        const PassKey p{sh.rank, sh.hub, forward};
        const StagedPass& pass = forward ? sh.fwd : sh.bwd;
        for (const StagedEvent& e : pass.events) {
          builder.CountEvent(p, e, stats);
        }
        AppendEvents(builder, p, pass.events);
      }
      add_counts(sh.fwd.dequeued + sh.bwd.dequeued,
                 sh.fwd.pruned + sh.bwd.pruned);
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
  stats.split_levels += split.levels_split();
  if (debug) {
    std::fprintf(stderr,
                 "[parallel_build] split: hubs=%llu passes=%llu "
                 "levels_split=%zu levels_single=%zu wall=%.3fs "
                 "append=%.3fs (%.3fs at barriers)\n",
                 static_cast<unsigned long long>(stats.split_hubs),
                 static_cast<unsigned long long>(2 * stats.split_hubs),
                 debug_split_levels, debug_single_levels, debug_split_s,
                 debug_append_s, debug_waiting_append_s);
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
