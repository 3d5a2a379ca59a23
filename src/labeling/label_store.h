#ifndef CSC_LABELING_LABEL_STORE_H_
#define CSC_LABELING_LABEL_STORE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/label_entry.h"
#include "util/lifetime_annotations.h"

namespace csc {

/// What a LabelStore holds, in bytes of packed entries.
struct LabelStoreStats {
  uint64_t live_bytes = 0;      // entries the sets hold
  uint64_t capacity_bytes = 0;  // capacity the sets hold
  uint64_t mapped_bytes = 0;    // slab pages mapped now
  /// Each owner's highest mapped bytes, summed.
  uint64_t mapped_high_water_bytes = 0;
  /// Capacity handed out from capacities the owner had freed.
  uint64_t reused_bytes = 0;

  LabelStoreStats& operator+=(const LabelStoreStats& o) {
    live_bytes += o.live_bytes;
    capacity_bytes += o.capacity_bytes;
    mapped_bytes += o.mapped_bytes;
    mapped_high_water_bytes += o.mapped_high_water_bytes;
    reused_bytes += o.reused_bytes;
    return *this;
  }
};

/// The label sets of one direction while a build constructs them: set k is
/// a rank-sorted run of LabelEntry, grown by Append and read as a span.
///
/// Sets belong to owners by blocks of 2^block_shift set ids, as the BFS ids
/// of a parallel build's level-split owners do (labeling/parallel_build.h):
/// set k belongs to owner (k >> block_shift) % owners. Each owner keeps its
/// sets in its own slab of pages mapped from the operating system, in the
/// spirit of a flat bump arena (SNIPPETS.md §3's LargeArray), so a set may
/// grow on its owner's thread with no lock and no malloc arena, and
/// Release(owner) returns the whole slab to the system at once.
///
/// A full set moves to the next of a ladder of capacities that grow by
/// about 1.25x, so a set's capacity stays below 1.25x its size. It takes
/// that capacity from the owner's freed capacities when one of that size,
/// or a larger one to split, is free, and bump-allocates it otherwise; the
/// capacity it leaves becomes free for the owner's next growing sets. The
/// top hubs of a build grow every set in lockstep, which frees capacities
/// no later set fits, so an owner that needs a new chunk while its freed
/// capacities exceed a quarter of what its sets hold compacts instead: its
/// sets move, in address order, into fresh chunks, each old chunk unmapped
/// once emptied.
///
/// Only set k's owner may call Append(k) or Release(owner) while any other
/// thread uses the store; reads of a set race with nothing but appends to
/// its owner's sets.
class LabelStore {
 public:
  LabelStore() = default;
  /// `num_sets` empty sets over `owners` >= 1 owners.
  LabelStore(size_t num_sets, unsigned owners, unsigned block_shift);
  ~LabelStore();

  LabelStore(LabelStore&& other) noexcept;
  LabelStore& operator=(LabelStore&& other) noexcept;
  LabelStore(const LabelStore&) = delete;
  LabelStore& operator=(const LabelStore&) = delete;

  size_t size() const { return slots_.size(); }
  unsigned owners() const { return static_cast<unsigned>(owners_.size()); }
  unsigned OwnerOf(size_t k) const {
    return static_cast<unsigned>((k >> block_shift_) % owners_.size());
  }

  /// Calls fn(k) for every set k of `owner`, in increasing k.
  template <typename Fn>
  void ForEachOf(unsigned owner, Fn&& fn) const {
    const size_t block = size_t{1} << block_shift_;
    for (size_t b = owner * block; b < slots_.size();
         b += owners_.size() * block) {
      for (size_t k = b; k < std::min(b + block, slots_.size()); ++k) fn(k);
    }
  }

  /// Set k's entries, valid until the next Append to a set of its owner
  /// (which may compact the owner's slab) or its owner's Release.
  std::span<const LabelEntry> operator[](size_t k) const {
    return {slots_[k].data, slots_[k].size};
  }
  /// Set k's header, for prefetching before operator[].
  const void* header(size_t k) const CSC_LIFETIME_BOUND {
    return &slots_[k];
  }

  /// Appends an entry whose hub rank is above every rank set k holds.
  void Append(size_t k, LabelEntry entry) {
    Slot& s = slots_[k];
    assert(s.size == 0 || s.data[s.size - 1].hub() < entry.hub());
    if (s.size == s.capacity) Grow(s);
    s.data[s.size++] = entry;
  }

  /// Empties every set of `owner` and unmaps its slab.
  void Release(unsigned owner);

  LabelStoreStats Stats() const;

 private:
  struct Slot {
    LabelEntry* data = nullptr;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };

  // A free capacity, linked through its first entry.
  struct FreeBlock {
    FreeBlock* next;
  };

  // A mapped chunk of a slab, which starts with this header.
  struct Chunk {
    Chunk* next;  // the chunk mapped before it
    size_t bytes;
  };

  // One owner's slab: its mapped chunks, the bump range of the newest, and
  // its free capacities by ladder step.
  struct alignas(64) Owner {
    Chunk* chunks = nullptr;
    LabelEntry* bump = nullptr;
    LabelEntry* bump_end = nullptr;
    std::vector<FreeBlock*> free;  // sized once, by ladder step
    uint64_t nonempty[2] = {0, 0};  // bit i: free[i] is not empty
    uint64_t held_bytes = 0;  // capacity the owner's sets hold
    uint64_t free_bytes = 0;  // capacity in the free lists
    uint64_t mapped_bytes = 0;
    uint64_t mapped_high_water_bytes = 0;
    uint64_t reused_bytes = 0;
  };

  void Grow(Slot& s);
  LabelEntry* Allocate(Owner& o, unsigned step);
  void Free(Owner& o, LabelEntry* block, uint32_t entries);
  void MapChunk(Owner& o, size_t entries);
  void Compact(Owner& o);

  std::vector<Slot> slots_;
  std::vector<Owner> owners_;
  unsigned block_shift_ = 0;
};

/// The free functions the pruned-BFS hooks reach a build's sets through
/// (labeling/hub_row.h); labeling/label_set.h has the LabelSet ones.
inline const void* SetHeader(const LabelStore& sets CSC_LIFETIME_BOUND,
                             size_t k) {
  return sets.header(k);
}
inline std::span<const LabelEntry> SetRun(const LabelStore& sets, size_t k) {
  return sets[k];
}
inline void AppendToSet(LabelStore& sets, size_t k, LabelEntry entry) {
  sets.Append(k, entry);
}

}  // namespace csc

#endif  // CSC_LABELING_LABEL_STORE_H_
