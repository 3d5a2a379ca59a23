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
#include <string>
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
/// side, and each BFS level is run by the workers that own its vertices, as
/// in level-synchronous BFS (Beamer, Asanović & Patterson, SC 2012) with
/// the owner-computes split of distributed BFS (Buluç & Madduri, SC 2011):
/// a vertex's distance, count and label set live on one owner, and a
/// relaxation of another owner's vertex travels to it as a message; see
/// LevelSplitBfs. The phase ends after the first hub with a pass that
/// dequeues fewer than kSplitHandOverDequeues vertices, a property of the
/// input alone.
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
///   3. **Commit.** The calling thread validates hubs in rank order. A hub
///      whose events all satisfy via_seq >= dist is *clean*: its staged
///      traversal is exactly the sequential one (pruning against a superset
///      can only prune more, and validation proved it pruned nowhere new),
///      so its events replay into label appends verbatim. A *dirty* pass
///      re-runs, level-split (both passes side by side if both are dirty),
///      against the now-current labels — which IS the sequential pass with
///      its appends deferred — and commits that. The replay runs on the
///      owners, each appending the labels of its own vertices in rank
///      order, once per batch and before each re-run.
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
/// serial commit loop reads them. In a level-split run each vertex's
/// distance, count and label set are read and written by its owner alone,
/// with plain loads and stores; owners share only the hub rows (read-only),
/// the outboxes (written by their sender before a level's barrier, read by
/// their receiver after it) and the sizes each publishes before it arrives.
/// So a label set grows on its owner: in phase 1 as the owner finds its
/// labels, in phase 2 as the owners replay the commit, each appending the
/// labels of its own vertices (a builder splits its sets among the same
/// owners, see SplitSets below). The TSan CI job runs the determinism
/// suite over every handoff at 1..8 workers.
inline constexpr size_t kMaxBatchRanks = 64;

/// Phase 1 runs while every pass dequeues at least this many vertices. On
/// WKT@0.5 that is the top 127 hubs: below them, passes are too small to
/// split well, and rank batches of them stage side by side instead.
inline constexpr uint64_t kSplitHandOverDequeues = 1024;

/// A level-split run's levels below this many vertices run on the calling
/// thread alone, until its first larger level.
inline constexpr size_t kSplitMinLevel = 128;

/// A level-split run's owners hold vertices in blocks of 2^kOwnerBlockShift
/// ids: block b belongs to owner b % owners (see LevelSplitBfs).
inline constexpr unsigned kOwnerBlockShift = 6;

/// The owners a level-split run uses out of `workers`: at most one per
/// hardware thread, since an owner that is descheduled stalls its level,
/// but at least two, so that levels still split.
inline unsigned LevelSplitOwners(size_t workers) {
  return static_cast<unsigned>(std::min<size_t>(
      workers, std::max(ThreadPool::DefaultThreadCount(), 2u)));
}

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
struct PassScratch {
  std::vector<Dist> dist;
  std::vector<Count> count;
  std::vector<Vertex> queue;
  HubRow row;

  explicit PassScratch(size_t num_vertices)
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
  PassScratch& s;
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
void StagePass(const Builder& builder, const PassKey& p, PassScratch& s,
               StagedPass& out) {
  builder.LoadRow(p, s.row);
  const auto& joined = builder.Sets(p.forward);
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
  builder.ClearRow(p, s.row);
}

/// Appends the label of event `e` of pass `p` to the set of e.w, unless the
/// builder derives it instead of storing it.
template <typename Builder>
void AppendEvent(const Builder& builder, const PassKey& p,
                 const StagedEvent& e) {
  if (builder.Stored(p, e)) {
    AppendToSet(builder.Sets(p.forward), e.w >> Builder::kJoinShift,
                LabelEntry(p.rank, e.dist, e.count));
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
/// more than a small level's work. After kSpins spins a waiting thread
/// sleeps (std::atomic::wait), so a descheduled thread does not leave the
/// others burning the CPUs it needs. The last thread to arrive runs
/// `complete` before it releases the others, so whatever `complete` writes,
/// and whatever any thread wrote before it arrived, is visible to every
/// thread after the barrier.
class SpinBarrier {
 public:
  /// Sets the number of threads; call only while no thread is waiting.
  void Reset(unsigned participants) { participants_ = participants; }

  template <typename Complete>
  void ArriveAndWait(Complete&& complete) {
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
      if (spins < kSpins) {
        CpuRelax();
      } else {
        generation_.wait(generation, std::memory_order_acquire);
      }
    }
  }

  /// Spins of a waiting thread before it sleeps: about 100 µs.
  static constexpr unsigned kSpins = 2000;

 private:
  unsigned participants_ = 1;
  std::atomic<unsigned> arrived_{0};
  std::atomic<uint32_t> generation_{0};
};

/// Pool workers that stay in one submitted task across many short jobs, so
/// a job costs two atomic handoffs rather than a pool dispatch and wake-up
/// per worker, and job(t) runs on the same thread from job to job: phase 1's
/// level-split owners run each hub this way, and phase 2 stages each of its
/// many small batches. The workers spin, then sleep (std::atomic::wait),
/// between jobs. Stop() lets them return, which must happen before anything
/// else is submitted to the pool; the next Run() submits them again.
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

/// Level-synchronous pruned counting BFS: one or two passes at a time, each
/// BFS level run by the workers that own its vertices (owner-computes, as
/// in distributed BFS: Buluç & Madduri, SC 2011). Two passes run together
/// only if they are the forward and backward passes of one hub: those read
/// only labels committed before the hub and disjoint label sets (L_in(w)
/// forward, L_out(w) backward), and each loads its hub row before either
/// appends, so they run side by side as staging runs them. Each level of
/// the combined run is then the union of the two passes' levels.
///
/// Owner t of a run's owners holds the vertices w with
/// (w >> kOwnerBlockShift) % owners == t: the same blocks for every hub, so
/// owners share cache lines of the distance and count arrays only at block
/// edges, and, for either builder's kJoinShift, whole label sets (a CSC
/// couple's two ids share one). Once the owners run, only a vertex's owner
/// reads or writes its distance, count and label set. In a level step an
/// owner dequeues its part of the level, runs the pruning joins and appends
/// the labels; it relaxes its own successors in place and sends
/// (w, dist, count) for another owner's to that owner, through an outbox
/// per source and destination. After the level's barrier each owner takes
/// in its messages: the first claims the distance, equal-distance ones add
/// their counts. The result equals the sequential passes' events and
/// counters:
///   - the sequential pass dequeues a whole level before the next, so a
///     vertex's distance and path count are final once the messages of the
///     level above it are taken in;
///   - the pruning joins are read-only: each pass's hub row is loaded once
///     by the calling thread, and a dequeue joins only its own vertex's
///     label set, which is appended to only after that join (each vertex is
///     dequeued once per pass);
///   - claims and count sums commute, so neither the order of a level's
///     dequeues nor that of its messages changes a distance or a count.
/// Pass i keeps its distances, counts and hub row in scratch[i].
///
/// Outboxes alternate by level parity, so one barrier per level suffices:
/// an owner refills the outboxes it filled at level L only after every
/// owner has crossed the barrier of level L + 1, and so has taken in level
/// L's messages. Before it arrives, each owner publishes how many vertices
/// it claimed and messages it sent; the run ends at a level where all sum
/// to 0.
///
/// The calling thread runs levels of fewer than kSplitMinLevel vertices
/// alone, claiming every vertex in place into its owner's list, until the
/// first larger one, so a run with no large level never pays a pool
/// dispatch. From there on the other owners join it for the rest of the
/// run.
///
/// Commit (phase 1) appends each label as its owner finds it, so a label
/// set grows on its owner's thread. Stage (phase 2's re-runs) records each
/// owner's labeled dequeues and collects them into StagedPasses afterwards.
template <typename Builder>
class LevelSplitBfs {
 public:
  struct Counts {
    uint64_t dequeued = 0;
    uint64_t pruned = 0;
  };
  using PassCounts = std::array<Counts, 2>;

  /// One owner's level steps over every run so far: seconds working and
  /// waiting at barriers (both 0 unless `timed`), and messages sent.
  struct OwnerTime {
    double busy_s = 0;
    double wait_s = 0;
    uint64_t messages = 0;
  };

  /// LevelSplitOwners(scratch.size()) owners: the calling thread and,
  /// through `pool` (null for one worker), a Crew of the others, so that
  /// each owner stays on one pool thread from run to run. The pool must
  /// have scratch.size() - 1 threads and run nothing else from a run to the
  /// next Stop().
  LevelSplitBfs(const Builder& builder, ThreadPool* pool,
                std::vector<PassScratch>& scratch, bool timed)
      : builder_(builder),
        scratch_(scratch),
        num_vertices_(scratch[0].dist.size()),
        owners_(pool == nullptr ? 1 : LevelSplitOwners(scratch.size())),
        crew_(pool, static_cast<unsigned>(owners_.size())),
        timed_(timed) {
    barrier_.Reset(static_cast<unsigned>(owners_.size()));
    for (size_t b = 0; b <= num_vertices_ >> kOwnerBlockShift; ++b) {
      owner_of_block_.push_back(static_cast<uint8_t>(b % owners_.size()));
    }
    // A pass reaches and labels each vertex at most once. The buffers are
    // mapped, not touched, here: what stays resident is what a run writes.
    for (Owner& o : owners_) {
      for (Lane& lane : o.lanes) {
        lane.list = Allocate<Vertex>();
        lane.events = Allocate<StagedEvent>();
      }
      for (std::vector<Outbox>& sent : o.outboxes) {
        sent.resize(2 * owners_.size());
      }
    }
  }

  ~LevelSplitBfs() {
    for (Owner& o : owners_) {
      for (Lane& lane : o.lanes) {
        Free(lane.list);
        Free(lane.events);
      }
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
    return Run(passes, nullptr);
  }

  /// Runs `passes` against the current labels, recording the labeled
  /// dequeues of passes[i] into `out[i]` (without Finalize) instead.
  PassCounts Stage(std::span<const PassKey> passes, StagedPass* const out[]) {
    commit_ = nullptr;
    return Run(passes, out);
  }

  /// Lets the owners' pool tasks return, so that the pool can run something
  /// else, and returns the outboxes' memory; the next run that splits a
  /// level starts them again.
  void Stop() {
    crew_.Stop();
    for (Owner& o : owners_) {
      for (std::vector<Outbox>& sent : o.outboxes) {
        for (Outbox& box : sent) Outbox().swap(box);
      }
    }
  }

  /// The number of owners, and the owner of BFS id w.
  unsigned owners() const { return static_cast<unsigned>(owners_.size()); }
  unsigned OwnerOf(Vertex w) const {
    return owner_of_block_[w >> kOwnerBlockShift];
  }

  /// Levels run split across owners, and on the calling thread alone, by
  /// every Run so far (a level of a two-pass run counts once).
  size_t levels_split() const { return levels_split_; }
  size_t levels_single() const { return levels_single_; }

  /// Each owner's OwnerTime, the calling thread's first.
  std::vector<OwnerTime> owner_times() const {
    std::vector<OwnerTime> times;
    for (const Owner& o : owners_) times.push_back(o.time);
    return times;
  }

 private:
  // A relaxation of vertex w, sent to its owner.
  struct Message {
    Vertex w;
    Dist dist;
    Count count;
  };
  // Pool threads grow these, so they take PageAllocator (see EventBuffer).
  using Outbox = std::vector<Message, PageAllocator<Message>>;

  // One owner's part of one pass: the vertices it has claimed, level by
  // level. The current level is list[lo, hi); the next grows from hi to
  // tail.
  struct Lane {
    Vertex* list = nullptr;
    size_t lo = 0, hi = 0, tail = 0;
    StagedEvent* events = nullptr;  // its labeled dequeues, when staging
    size_t num_events = 0;
    Counts counts;
    LabelBuildStats entries;  // what its labels stand for, when committing
  };

  struct alignas(64) Owner {
    Lane lanes[2];
    // What this owner sends, by level parity, at [2 * destination + pass].
    std::array<std::vector<Outbox>, 2> outboxes;
    // Published before each barrier: the level's dequeues, and the vertices
    // claimed and messages sent for the next level.
    size_t level_size = 0, pending = 0;
    OwnerTime time;
    std::exception_ptr error;
  };

  // The frontier as the builders' Visit hooks feed it, for owner t's lane
  // of pass i. A vertex of owner t, or any vertex while the calling thread
  // runs alone (`sent` null), is claimed in place; another owner's is sent
  // to it.
  struct OwnerFrontier {
    LevelSplitBfs& run;
    const size_t i;
    const unsigned t;
    Lane& lane;
    std::vector<Outbox>* sent;

    void Prune() { ++lane.counts.pruned; }
    void Label(const StagedEvent& e) {
      if (run.commit_ == nullptr) {
        std::construct_at(lane.events + lane.num_events++, e);
        return;
      }
      const PassKey& key = run.keys_[i];
      run.builder_.CountEvent(key, e, lane.entries);
      AppendEvent(run.builder_, key, e);
    }
    void Relax(Vertex wn, Dist nd, Count c) {
      const unsigned o = run.owner_of_block_[wn >> kOwnerBlockShift];
      if (sent == nullptr || o == t) {
        run.Claim(o, i, wn, nd, c);
      } else {
        (*sent)[2 * o + i].push_back({wn, nd, c});
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

  std::chrono::steady_clock::time_point Now() const {
    return timed_ ? std::chrono::steady_clock::now()
                  : std::chrono::steady_clock::time_point{};
  }
  static double Seconds(std::chrono::steady_clock::time_point a,
                        std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  }

  PassCounts Run(std::span<const PassKey> passes, StagedPass* const out[]) {
    if (passes.size() <= scratch_.size()) return RunTogether(passes, out);
    PassCounts total;  // one worker: one pass at a time
    for (size_t i = 0; i < passes.size(); ++i) {
      total[i] = RunTogether(passes.subspan(i, 1),
                             out == nullptr ? nullptr : out + i)[0];
    }
    return total;
  }

  PassCounts RunTogether(std::span<const PassKey> passes,
                         StagedPass* const out[]) {
    num_slots_ = passes.size();
    for (Owner& o : owners_) {
      for (Lane& lane : o.lanes) {
        lane.lo = lane.hi = lane.tail = lane.num_events = 0;
        lane.counts = {};
        lane.entries = {};
      }
    }
    for (size_t i = 0; i < num_slots_; ++i) {
      keys_[i] = passes[i];
      builder_.LoadRow(keys_[i], scratch_[i].row);
      const Vertex hub = keys_[i].hub;
      Claim(owner_of_block_[hub >> kOwnerBlockShift], i, hub, 0, 1);
    }
    failed_.store(false, std::memory_order_relaxed);
    for (Owner& o : owners_) Advance(o);
    bool dispatched = false;
    while (const size_t size = LevelSize()) {
      if (owners_.size() > 1 && size >= kSplitMinLevel) {
        dispatched = true;
        auto work = [this](unsigned t) { WorkLevels(t); };
        crew_.Run(work);
        break;
      }
      ++levels_single_;
      const auto start = Now();
      for (unsigned t = 0; t < owners_.size(); ++t) {
        for (size_t i = 0; i < num_slots_; ++i) Expand(t, i, nullptr);
      }
      owners_[0].time.busy_s += Seconds(start, Now());
      for (Owner& o : owners_) Advance(o);
    }
    PassCounts total;
    std::exception_ptr error;
    for (Owner& o : owners_) {
      if (!dispatched) ResetLanes(o);
      for (size_t i = 0; i < num_slots_; ++i) {
        const Lane& lane = o.lanes[i];
        total[i].dequeued += lane.counts.dequeued;
        total[i].pruned += lane.counts.pruned;
        if (commit_ != nullptr) {
          commit_->entries += lane.entries.entries;
          commit_->canonical_entries += lane.entries.canonical_entries;
          commit_->non_canonical_entries += lane.entries.non_canonical_entries;
        } else {
          out[i]->events.insert(out[i]->events.end(), lane.events,
                                lane.events + lane.num_events);
        }
      }
      if (o.error && !error) error = o.error;
      o.error = nullptr;
    }
    for (size_t i = 0; i < num_slots_; ++i) {
      builder_.ClearRow(keys_[i], scratch_[i].row);
    }
    if (error) std::rethrow_exception(error);
    return total;
  }

  // Owner t's level steps for the rest of the run, from the current level.
  void WorkLevels(unsigned t) {
    Owner& me = owners_[t];
    for (unsigned level = 0;; ++level) {
      const auto start = Now();
      const unsigned parity = level % 2;
      std::vector<Outbox>& sent = me.outboxes[parity];
      me.level_size = me.pending = 0;
      try {
        if (level > 0) {
          // Take in what the others sent this owner at the last level.
          for (const Owner& from : owners_) {
            for (size_t i = 0; i < num_slots_; ++i) {
              for (const Message& m : from.outboxes[parity ^ 1][2 * t + i]) {
                Claim(t, i, m.w, m.dist, m.count);
              }
            }
          }
          Advance(me);
        }
        for (Outbox& box : sent) box.clear();
        for (size_t i = 0; i < num_slots_; ++i) {
          Lane& lane = me.lanes[i];
          me.level_size += lane.hi - lane.lo;
          Expand(t, i, &sent);
          me.pending += lane.tail - lane.hi;
        }
      } catch (...) {
        if (!me.error) me.error = std::current_exception();
        failed_.store(true, std::memory_order_relaxed);
      }
      for (const Outbox& box : sent) {
        me.pending += box.size();
        me.time.messages += box.size();
      }
      const auto arrive = Now();
      barrier_.ArriveAndWait([this] { EndLevel(); });
      me.time.busy_s += Seconds(start, arrive);
      me.time.wait_s += Seconds(arrive, Now());
      if (done_) break;
    }
    ResetLanes(me);
  }

  // Dequeues owner t's part of pass i's current level; `sent` as in
  // OwnerFrontier.
  void Expand(unsigned t, size_t i, std::vector<Outbox>* sent) {
    Lane& lane = owners_[t].lanes[i];
    const std::span<const Vertex> level(lane.list + lane.lo,
                                        lane.hi - lane.lo);
    const auto& joined = builder_.Sets(keys_[i].forward);
    const PassScratch& s = scratch_[i];
    OwnerFrontier frontier{*this, i, t, lane, sent};
    for (size_t head = 0; head < level.size();) {
      const Vertex w =
          DequeueAndPrefetch(level, head, joined, Builder::kJoinShift);
      ++lane.counts.dequeued;
      builder_.Visit(keys_[i], w, s.dist[w], s.count[w], s.row, frontier);
    }
  }

  // Relaxes w, owned by o, in pass i: the first relaxation claims its
  // distance and enqueues it; one at that distance adds its count.
  void Claim(unsigned o, size_t i, Vertex w, Dist d, Count c) {
    PassScratch& s = scratch_[i];
    if (s.dist[w] == kInfDist) {
      s.dist[w] = d;
      s.count[w] = c;
      Lane& lane = owners_[o].lanes[i];
      lane.list[lane.tail++] = w;
    } else if (s.dist[w] == d) {
      s.count[w] += c;
    }
  }

  // Moves o's lanes to their next level: the vertices claimed since.
  void Advance(Owner& o) {
    for (size_t i = 0; i < num_slots_; ++i) {
      o.lanes[i].lo = o.lanes[i].hi;
      o.lanes[i].hi = o.lanes[i].tail;
    }
  }

  size_t LevelSize() const {
    size_t size = 0;
    for (const Owner& o : owners_) {
      for (size_t i = 0; i < num_slots_; ++i) {
        size += o.lanes[i].hi - o.lanes[i].lo;
      }
    }
    return size;
  }

  // Run by the last owner to reach a level's barrier, with every owner's
  // published sizes in view.
  void EndLevel() {
    size_t size = 0, pending = 0;
    for (const Owner& o : owners_) {
      size += o.level_size;
      pending += o.pending;
    }
    if (size > 0) ++(size >= kSplitMinLevel ? levels_split_ : levels_single_);
    done_ = pending == 0 || failed_.load(std::memory_order_relaxed);
  }

  // Restores the distance and count of every vertex o claimed in this run.
  void ResetLanes(Owner& o) {
    for (size_t i = 0; i < num_slots_; ++i) {
      const Lane& lane = o.lanes[i];
      for (size_t j = 0; j < lane.tail; ++j) {
        scratch_[i].dist[lane.list[j]] = kInfDist;
        scratch_[i].count[lane.list[j]] = 0;
      }
    }
  }

  const Builder& builder_;
  std::vector<PassScratch>& scratch_;
  const size_t num_vertices_;
  std::vector<Owner> owners_;
  Crew crew_;
  std::vector<uint8_t> owner_of_block_;  // see the class comment
  const bool timed_;
  PassKey keys_[2];
  size_t num_slots_ = 1;
  SpinBarrier barrier_;
  std::atomic<bool> failed_{false};
  bool done_ = false;  // written by EndLevel, read after the barrier
  size_t levels_split_ = 0, levels_single_ = 0;
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
///   void SplitSets(unsigned owners, unsigned block_shift);
///       // called once, before any label: owner (w >> block_shift) % owners
///       // alone appends to the set of BFS id w (a LabelStore splits so)
///   Vertex VertexAt(Rank r) const;      // the vertex ranked r
///   bool IsHub(Vertex v) const;         // does this rank root BFSs?
///   void CommitNonHub(Rank, Vertex, LabelBuildStats&);  // e.g. couple
///                                       // self-labels, and their counts
///   bool distance_pruning() const;      // false => staging is always clean
///   void LoadRow(const PassKey&, HubRow&) const;   // the pass's hub row,
///   void ClearRow(const PassKey&, HubRow&) const;  // if it has one
///   Sets& Sets(bool forward) const;     // the sets forward (backward)
///       // passes join and append to, set w >> kJoinShift for BFS id w: a
///       // LabelStore or LabelSets (SetHeader/SetRun/AppendToSet)
///   template <typename Frontier>
///   void Visit(const PassKey&, Vertex w, Dist, Count, const HubRow&,
///              Frontier&) const;        // one dequeue; see SerialFrontier
///   bool Stored(const PassKey&, const StagedEvent&) const;
///       // is the event's label appended (not derived)? see AppendEvent
///   void CountEvent(const PassKey&, const StagedEvent&,
///                   LabelBuildStats&) const;  // the entries it stands for
///   Dist NewOutDist(const StagedHub&, Vertex) const;   // see above
///   Dist NewInDist(const StagedHub&, Vertex) const;
///
/// All but CommitNonHub run concurrently: they read only committed labels
/// and write only their arguments. Labels are appended only to the sets of
/// the appending owner's own BFS ids (LevelSplitBfs::OwnerOf), by the
/// level-split owners in phase 1 and by the owners' replay in phase 2, which
/// also runs CommitNonHub for each non-hub rank on the owner of its vertex;
/// phase 1 runs CommitNonHub on the calling thread between hubs, while the
/// owners wait.
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
  std::vector<PassScratch> scratch;
  scratch.reserve(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) {
    scratch.emplace_back(builder.num_vertices());
  }
  std::vector<StagedHub> staged(kMaxBatchRanks);
  BatchEntries batch_entries;

  const bool debug = std::getenv("CSC_PARALLEL_DEBUG") != nullptr;
  LevelSplitBfs<Builder> split(builder, pool.get(), scratch, debug);
  // A label is appended only on the owner of its BFS id, in both phases:
  // the builder's sets are split among the same owners by the same blocks.
  builder.SplitSets(split.owners(), kOwnerBlockShift);
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
  split.Stop();
  const double debug_split_s = secs(split_start, now());
  const size_t debug_split_levels = split.levels_split();
  const size_t debug_single_levels = split.levels_single();
  const auto debug_owner_times = split.owner_times();

  // Phase 2: rank batches.
  Crew crew(pool.get(), num_threads);
  size_t debug_dirty = 0, debug_hubs = 0, debug_staged_deq = 0,
         debug_rerun_deq = 0;
  double debug_stage_s = 0, debug_validate_s = 0, debug_rerun_s = 0,
         debug_replay_s = 0;
  // The commit's appends, replayed on the owners: owner t appends the
  // labels of its own vertices, the batch's ranks [replay_from, to) in
  // rank order (staged hubs from replay_hub on), and counts what they
  // stand for in owner_stats[t]. Every set thus grows on its owner, in
  // rank order, and the counts sum to the sequential builder's.
  const unsigned owners = split.owners();
  std::vector<LabelBuildStats> owner_stats(num_threads);
  size_t replay_from = 0, replay_hub = 0;
  auto replay = [&](size_t to, size_t to_hub) {
    if (replay_from == to) return;
    auto replay_start = now();
    auto job = [&](unsigned t) {
      if (t >= owners) return;
      LabelBuildStats& mine = owner_stats[t];
      size_t h = replay_hub;
      for (size_t r = replay_from; r < to; ++r) {
        const Vertex v = builder.VertexAt(static_cast<Rank>(r));
        if (!builder.IsHub(v)) {
          if (split.OwnerOf(v) == t) {
            builder.CommitNonHub(static_cast<Rank>(r), v, mine);
          }
          continue;
        }
        const StagedHub& sh = staged[h++];
        for (bool forward : {true, false}) {
          const PassKey p{sh.rank, sh.hub, forward};
          for (const StagedEvent& e : (forward ? sh.fwd : sh.bwd).events) {
            if (split.OwnerOf(e.w) != t) continue;
            builder.CountEvent(p, e, mine);
            AppendEvent(builder, p, e);
          }
        }
      }
    };
    crew.Run(job);
    replay_from = to;
    replay_hub = to_hub;
    debug_replay_s += secs(replay_start, now());
  };
  size_t batch_size = 1;  // adapted per batch; see the file comment
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
    // Commit in rank order. Validation and re-runs go hub by hub on the
    // calling thread; the appends wait until a re-run needs the labels of
    // the hubs before it, or the batch ends, and the owners then replay
    // them (replay above).
    size_t idx = 0;
    size_t dirty_in_batch = 0;
    replay_from = begin;
    replay_hub = 0;
    for (size_t r = begin; r < end; ++r) {
      if (!builder.IsHub(builder.VertexAt(static_cast<Rank>(r)))) continue;
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
        replay(r, idx);
        auto rerun_start = now();
        crew.Stop();  // the re-run runs the level-split owners
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
        split.Stop();
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
      add_counts(sh.fwd.dequeued + sh.bwd.dequeued,
                 sh.fwd.pruned + sh.bwd.pruned);
      ++idx;
    }
    replay(end, idx);
    begin = end;
    // Adapt: a re-run means same-batch hubs still cover each other's
    // shortest paths, and a dirty high-rank hub is expensive twice (a
    // near-unpruned staged BFS thrown away, then a serialized re-run) — so
    // drop straight back to singleton batches on any re-run and double
    // toward the cap while batches come back clean.
    batch_size =
        dirty_in_batch > 0 ? 1 : std::min(batch_size * 2, kMaxBatchRanks);
  }
  for (const LabelBuildStats& mine : owner_stats) {
    stats.entries += mine.entries;
    stats.canonical_entries += mine.canonical_entries;
    stats.non_canonical_entries += mine.non_canonical_entries;
  }
  stats.split_levels += split.levels_split();
  if (debug) {
    // Each owner's busy and barrier-wait seconds, the calling thread's
    // first, and the messages they sent.
    std::string busy, wait;
    uint64_t messages = 0;
    for (const auto& t : debug_owner_times) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%s%.3f", busy.empty() ? "" : ",",
                    t.busy_s);
      busy += buf;
      std::snprintf(buf, sizeof buf, "%s%.3f", wait.empty() ? "" : ",",
                    t.wait_s);
      wait += buf;
      messages += t.messages;
    }
    std::fprintf(stderr,
                 "[parallel_build] split: hubs=%llu passes=%llu "
                 "levels_split=%zu levels_single=%zu wall=%.3fs "
                 "busy=%ss wait=%ss messages=%llu\n",
                 static_cast<unsigned long long>(stats.split_hubs),
                 static_cast<unsigned long long>(2 * stats.split_hubs),
                 debug_split_levels, debug_single_levels, debug_split_s,
                 busy.c_str(), wait.c_str(),
                 static_cast<unsigned long long>(messages));
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
