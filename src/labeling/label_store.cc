#include "labeling/label_store.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <new>
#include <utility>

#include "util/page_allocator.h"

namespace csc {

namespace {

// The capacity ladder: steps of +1 up to 8 entries, then of x1.25 (rounded
// down), up to what a set's 32-bit size can count.
constexpr size_t kMaxSteps = 128;

struct Ladder {
  std::array<uint32_t, kMaxSteps> capacity{};
  unsigned steps = 0;
};

constexpr Ladder MakeLadder() {
  Ladder ladder;
  uint64_t c = 1;
  while (c <= UINT32_MAX && ladder.steps < kMaxSteps) {
    ladder.capacity[ladder.steps++] = static_cast<uint32_t>(c);
    c = std::max(c + 1, c * 5 / 4);
  }
  return ladder;
}

constexpr Ladder kLadder = MakeLadder();
static_assert(kLadder.steps < kMaxSteps, "ladder must end below UINT32_MAX");

// The ladder step of `capacity`, a ladder capacity.
unsigned StepOf(uint32_t capacity) {
  const uint32_t* begin = kLadder.capacity.data();
  return static_cast<unsigned>(
      std::lower_bound(begin, begin + kLadder.steps, capacity) - begin);
}

// The highest step whose capacity is at most `entries` (>= 1).
unsigned StepAtMost(uint64_t entries) {
  const uint32_t* begin = kLadder.capacity.data();
  return static_cast<unsigned>(
      std::upper_bound(begin, begin + kLadder.steps, entries) - begin - 1);
}

// Slab chunks: 256 KB, or one capacity larger than that.
constexpr size_t kChunkBytes = size_t{1} << 18;

// An owner that needs a new chunk while its free capacities exceed
// 1/kCompactDivisor of what its sets hold compacts instead (Compact).
constexpr uint64_t kCompactDivisor = 4;

}  // namespace

LabelStore::LabelStore(size_t num_sets, unsigned owners, unsigned block_shift)
    : slots_(num_sets), owners_(std::max(owners, 1u)),
      block_shift_(block_shift) {
  for (Owner& o : owners_) o.free.assign(kLadder.steps, nullptr);
}

LabelStore::~LabelStore() {
  for (unsigned t = 0; t < owners(); ++t) Release(t);
}

LabelStore::LabelStore(LabelStore&& other) noexcept
    : slots_(std::move(other.slots_)),
      owners_(std::move(other.owners_)),
      block_shift_(other.block_shift_) {
  other.slots_.clear();
  other.owners_.clear();
}

LabelStore& LabelStore::operator=(LabelStore&& other) noexcept {
  if (this != &other) {
    for (unsigned t = 0; t < owners(); ++t) Release(t);
    slots_ = std::move(other.slots_);
    owners_ = std::move(other.owners_);
    block_shift_ = other.block_shift_;
    other.slots_.clear();
    other.owners_.clear();
  }
  return *this;
}

void LabelStore::Grow(Slot& s) {
  Owner& o = owners_[OwnerOf(&s - slots_.data())];
  const unsigned step = s.capacity == 0 ? 0 : StepOf(s.capacity) + 1;
  const uint32_t entries = kLadder.capacity[step];
  LabelEntry* block = Allocate(o, step);
  if (s.size > 0) std::memcpy(block, s.data, s.size * sizeof(LabelEntry));
  if (s.capacity > 0) Free(o, s.data, s.capacity);
  o.held_bytes += (entries - s.capacity) * sizeof(LabelEntry);
  s.data = block;
  s.capacity = entries;
}

LabelEntry* LabelStore::Allocate(Owner& o, unsigned step) {
  const uint32_t entries = kLadder.capacity[step];
  // A free capacity of this step, else the smallest larger one, split.
  unsigned from = step;
  if (o.free[step] == nullptr) {
    from = kLadder.steps;
    for (unsigned word = (step + 1) / 64; word < 2; ++word) {
      uint64_t bits = o.nonempty[word];
      if (word == (step + 1) / 64) bits &= ~uint64_t{0} << ((step + 1) % 64);
      if (bits != 0) {
        from = 64 * word + static_cast<unsigned>(std::countr_zero(bits));
        break;
      }
    }
  }
  if (from < kLadder.steps) {
    FreeBlock* block = o.free[from];
    o.free[from] = block->next;
    if (o.free[from] == nullptr) {
      o.nonempty[from / 64] &= ~(uint64_t{1} << (from % 64));
    }
    LabelEntry* entries_at = reinterpret_cast<LabelEntry*>(block);
    o.free_bytes -= kLadder.capacity[from] * sizeof(LabelEntry);
    if (from > step) {
      Free(o, entries_at + entries, kLadder.capacity[from] - entries);
    }
    o.reused_bytes += entries * sizeof(LabelEntry);
    return entries_at;
  }
  if (static_cast<size_t>(o.bump_end - o.bump) < entries &&
      o.free_bytes * kCompactDivisor > o.held_bytes &&
      o.held_bytes >= kChunkBytes) {
    Compact(o);
  }
  if (static_cast<size_t>(o.bump_end - o.bump) < entries) {
    // The rest of the chunk becomes free capacity.
    if (o.bump != o.bump_end) {
      Free(o, o.bump, static_cast<uint32_t>(o.bump_end - o.bump));
    }
    MapChunk(o, entries);
  }
  LabelEntry* block = o.bump;
  o.bump += entries;
  return block;
}

void LabelStore::Free(Owner& o, LabelEntry* block, uint32_t entries) {
  o.free_bytes += entries * sizeof(LabelEntry);
  // Split into ladder capacities, largest first.
  while (entries > 0) {
    const unsigned step = StepAtMost(entries);
    const uint32_t piece = kLadder.capacity[step];
    o.free[step] = ::new (block) FreeBlock{o.free[step]};
    o.nonempty[step / 64] |= uint64_t{1} << (step % 64);
    block += piece;
    entries -= piece;
  }
}

void LabelStore::MapChunk(Owner& o, size_t entries) {
  constexpr size_t kHeaderEntries =
      (sizeof(Chunk) + sizeof(LabelEntry) - 1) / sizeof(LabelEntry);
  const size_t bytes = std::max(
      kChunkBytes, (kHeaderEntries + entries) * sizeof(LabelEntry));
  void* pages = PageAllocator<char>().allocate(bytes);
  o.chunks = ::new (pages) Chunk{o.chunks, bytes};
  o.bump = static_cast<LabelEntry*>(pages) + kHeaderEntries;
  o.bump_end = static_cast<LabelEntry*>(pages) + bytes / sizeof(LabelEntry);
  o.mapped_bytes += bytes;
  o.mapped_high_water_bytes =
      std::max(o.mapped_high_water_bytes, o.mapped_bytes);
}

void LabelStore::Release(unsigned owner) {
  if (owner >= owners_.size()) return;
  Owner& o = owners_[owner];
  ForEachOf(owner, [this](size_t k) { slots_[k] = Slot(); });
  while (o.chunks != nullptr) {
    const Chunk chunk = *o.chunks;
    PageAllocator<char>().deallocate(reinterpret_cast<char*>(o.chunks),
                                     chunk.bytes);
    o.chunks = chunk.next;
  }
  o.bump = o.bump_end = nullptr;
  std::fill(o.free.begin(), o.free.end(), nullptr);
  o.nonempty[0] = o.nonempty[1] = 0;
  o.held_bytes = o.free_bytes = o.mapped_bytes = 0;
}

void LabelStore::Compact(Owner& o) {
  const unsigned owner = static_cast<unsigned>(&o - owners_.data());
  // The owner's old chunks and its sets, each by address.
  using Range = std::pair<LabelEntry*, size_t>;
  std::vector<Range, PageAllocator<Range>> chunks, sets;
  for (Chunk* c = o.chunks; c != nullptr; c = c->next) {
    chunks.push_back({reinterpret_cast<LabelEntry*>(c), c->bytes});
  }
  ForEachOf(owner, [&](size_t k) {
    if (slots_[k].capacity > 0) sets.push_back({slots_[k].data, k});
  });
  std::sort(chunks.begin(), chunks.end());
  std::sort(sets.begin(), sets.end());
  o.chunks = nullptr;
  o.bump = o.bump_end = nullptr;
  std::fill(o.free.begin(), o.free.end(), nullptr);
  o.nonempty[0] = o.nonempty[1] = 0;
  o.free_bytes = 0;
  // Moves the sets in address order into fresh chunks, unmapping each old
  // chunk once every set in it has moved: the copy maps at most a chunk
  // beyond what it unmaps.
  size_t next_chunk = 0;
  auto unmap_below = [&](const LabelEntry* address) {
    for (; next_chunk < chunks.size(); ++next_chunk) {
      const auto [base, bytes] = chunks[next_chunk];
      if (address != nullptr &&
          address < base + bytes / sizeof(LabelEntry)) {
        return;
      }
      PageAllocator<char>().deallocate(reinterpret_cast<char*>(base), bytes);
      o.mapped_bytes -= bytes;
    }
  };
  for (const auto& [data, k] : sets) {
    unmap_below(data);
    Slot& s = slots_[k];
    if (static_cast<size_t>(o.bump_end - o.bump) < s.capacity) {
      if (o.bump != o.bump_end) {
        Free(o, o.bump, static_cast<uint32_t>(o.bump_end - o.bump));
      }
      MapChunk(o, s.capacity);
    }
    std::memcpy(o.bump, s.data, s.size * sizeof(LabelEntry));
    s.data = o.bump;
    o.bump += s.capacity;
  }
  unmap_below(nullptr);
}

LabelStoreStats LabelStore::Stats() const {
  LabelStoreStats stats;
  for (const Slot& s : slots_) {
    stats.live_bytes += uint64_t{s.size} * sizeof(LabelEntry);
    stats.capacity_bytes += uint64_t{s.capacity} * sizeof(LabelEntry);
  }
  for (const Owner& o : owners_) {
    stats.mapped_bytes += o.mapped_bytes;
    stats.mapped_high_water_bytes += o.mapped_high_water_bytes;
    stats.reused_bytes += o.reused_bytes;
  }
  return stats;
}

}  // namespace csc
