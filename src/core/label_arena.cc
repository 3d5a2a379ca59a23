#include "core/label_arena.h"

#include <cstring>

// SIMD selection for the join kernels. CSC_NO_SIMD (a CMake option)
// forces the scalar fallback everywhere — the escape hatch for odd
// toolchains and for A/B-ing the kernels.
#if !defined(CSC_NO_SIMD)
#if defined(__SSE2__) || defined(_M_X64)
#define CSC_ARENA_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define CSC_ARENA_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace csc {

namespace {

constexpr size_t kEntry = sizeof(LabelEntry);

}  // namespace

LabelArena LabelArena::Sized(
    Vertex num_vertices,
    const std::function<std::span<const LabelEntry>(Vertex)>& run_of) {
  LabelArena arena;
  arena.offsets_.assign(static_cast<size_t>(num_vertices) + 1, 0);
  for (Vertex v = 0; v < num_vertices; ++v) {
    arena.offsets_[v + 1] = arena.offsets_[v] + run_of(v).size();
  }
  arena.payload_.resize(arena.SizeBytes());
  return arena;
}

void LabelArena::PlaceRun(Vertex v, std::span<const LabelEntry> run) {
  if (!run.empty()) {
    std::memcpy(payload_.data() + offsets_[v] * kEntry, run.data(),
                run.size() * kEntry);
  }
}

LabelArena LabelArena::FromLabelSets(const std::vector<LabelSet>& sets) {
  const Vertex n = static_cast<Vertex>(sets.size());
  auto run_of = [&sets](Vertex v) -> std::span<const LabelEntry> {
    return sets[v].entries();
  };
  LabelArena arena = Sized(n, run_of);
  for (Vertex v = 0; v < n; ++v) arena.PlaceRun(v, run_of(v));
  return arena;
}

bool LabelArena::Cursor::Next() {
  if (p_ == end_) return false;
  LabelEntry e = LoadPackedEntry(p_);
  rank_ = e.hub();
  dist_ = e.dist();
  count_ = e.count();
  p_ += kEntry;
  return true;
}

LabelArena::Cursor LabelArena::RunCursor(Vertex v) const {
  Cursor cursor;
  cursor.p_ = PackedRunBegin(v);
  cursor.end_ = PackedRunBegin(v + 1);
  return cursor;
}

LabelSet LabelArena::DecodeRun(Vertex v) const {
  LabelSet labels;
  for (Cursor c = RunCursor(v); c.Next();) {
    labels.Append(LabelEntry(static_cast<Vertex>(c.rank()), c.dist(),
                             c.count()));
  }
  return labels;
}

namespace {

// ---- The join kernels. ----
//
// Runs are arrays of 8-byte entry words sorted by hub rank (the top
// kHubBits of each word), addressed as byte pointers because a view-backed
// payload has no alignment guarantee.

constexpr int kRankShift = LabelEntry::kDistBits + LabelEntry::kCountBits;

inline uint64_t LoadBits(const uint8_t* p) {
  uint64_t bits;
  std::memcpy(&bits, p, sizeof(bits));
  return bits;
}

inline Rank RankAt(const uint8_t* p) {
  return static_cast<Rank>(LoadBits(p) >> kRankShift);
}

// Folds one common-hub hit into the running (min-dist, count-sum) result.
inline void Accumulate(JoinResult& result, uint64_t a_bits, uint64_t b_bits) {
  Dist d = static_cast<Dist>((a_bits >> LabelEntry::kCountBits) &
                             LabelEntry::kMaxDist) +
           static_cast<Dist>((b_bits >> LabelEntry::kCountBits) &
                             LabelEntry::kMaxDist);
  Count c = (a_bits & LabelEntry::kMaxCount) * (b_bits & LabelEntry::kMaxCount);
  if (d < result.dist) {
    result.dist = d;
    result.count = c;
  } else if (d == result.dist) {
    result.count += c;
  }
}

#if defined(CSC_ARENA_SIMD_SSE2)
// Narrows the ranks of the four entry words at `p` to 4x u32 lanes: shift
// the rank field down in each 64-bit word, then gather the low halves.
inline __m128i LoadRanks4(const uint8_t* p) {
  __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
  lo = _mm_srli_epi64(lo, kRankShift);
  hi = _mm_srli_epi64(hi, kRankShift);
  return _mm_castps_si128(_mm_shuffle_ps(
      _mm_castsi128_ps(lo), _mm_castsi128_ps(hi), _MM_SHUFFLE(2, 0, 2, 0)));
}

// One bit per 32-bit lane of a compare result.
inline int LaneMask(__m128i cmp) {
  return _mm_movemask_ps(_mm_castsi128_ps(cmp));
}
#elif defined(CSC_ARENA_SIMD_NEON)
inline uint32x4_t LoadRanks4(const uint8_t* p) {
  uint64x2_t lo = vreinterpretq_u64_u8(vld1q_u8(p));
  uint64x2_t hi = vreinterpretq_u64_u8(vld1q_u8(p + 16));
  return vcombine_u32(vmovn_u64(vshrq_n_u64(lo, kRankShift)),
                      vmovn_u64(vshrq_n_u64(hi, kRankShift)));
}

// One 16-bit field per 32-bit lane of a compare result (all ones or zero).
inline uint64_t LaneMask(uint32x4_t cmp) {
  return vget_lane_u64(vreinterpret_u64_u16(vmovn_u32(cmp)), 0);
}
#endif

// Advances `p` to the first entry with rank >= bound, comparing four ranks
// per step once the advance proves long. The SIMD variants shift the rank
// field out of four entry words, narrow to one 32-bit lane each (ranks fit
// kHubBits < 31 bits, so signed compares are safe), and turn the lane mask
// into the exact stop offset; the scalar fallback exploits sortedness (if
// the 4th rank is below the bound, all four are).
inline const uint8_t* SkipBelow(const uint8_t* p, const uint8_t* end,
                                Rank bound) {
  // Scalar prefix: most advances in a balanced merge are 1-3 entries, and
  // a 4-wide block setup costs more than it skips there. Only fall through
  // to the block loop while the advance is still going.
  for (int step = 0; step < 3; ++step) {
    if (p == end || RankAt(p) >= bound) return p;
    p += kEntry;
  }
#if defined(CSC_ARENA_SIMD_SSE2)
  const __m128i vbound = _mm_set1_epi32(static_cast<int>(bound));
  while (static_cast<size_t>(end - p) >= 4 * kEntry) {
    int below = LaneMask(_mm_cmplt_epi32(LoadRanks4(p), vbound));
    if (below != 0xF) return p + kEntry * __builtin_ctz(~below);
    p += 4 * kEntry;
  }
#elif defined(CSC_ARENA_SIMD_NEON)
  const uint32x4_t vbound = vdupq_n_u32(bound);
  while (static_cast<size_t>(end - p) >= 4 * kEntry) {
    uint64_t below = LaneMask(vcltq_u32(LoadRanks4(p), vbound));
    if (below != ~uint64_t{0}) {
      return p + kEntry * (__builtin_ctzll(~below) / 16);
    }
    p += 4 * kEntry;
  }
#else
  while (static_cast<size_t>(end - p) >= 4 * kEntry &&
         RankAt(p + 3 * kEntry) < bound) {
    p += 4 * kEntry;
  }
#endif
  while (p < end && RankAt(p) < bound) p += kEntry;
  return p;
}

// First entry in [p, end) with rank >= bound, by exponential probe then
// binary search: O(log gap) per advance. The skewed-join workhorse.
inline const uint8_t* GallopTo(const uint8_t* p, const uint8_t* end,
                               Rank bound) {
  size_t n = static_cast<size_t>(end - p) / kEntry;
  if (n == 0 || RankAt(p) >= bound) return p;
  size_t prev = 0;  // largest index known < bound
  size_t step = 1;
  while (step < n && RankAt(p + step * kEntry) < bound) {
    prev = step;
    step = step * 2 + 1;
  }
  size_t lo = prev + 1;
  size_t hi = step < n ? step : n;  // hi is >= bound, or n (one past the run)
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (RankAt(p + mid * kEntry) < bound) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return p + lo * kEntry;
}

// Linear merge of two rank-sorted packed runs, folding hits into `result`
// — the conformance oracle and microbenchmark baseline for the kernels
// below, and the block kernel's tail (which hands over its running result).
JoinResult JoinPackedLinear(const uint8_t* a, const uint8_t* a_end,
                            const uint8_t* b, const uint8_t* b_end,
                            JoinResult result = {}) {
  while (a != a_end && b != b_end) {
    Rank ra = RankAt(a);
    Rank rb = RankAt(b);
    if (ra < rb) {
      a += kEntry;
    } else if (rb < ra) {
      b += kEntry;
    } else {
      Accumulate(result, LoadBits(a), LoadBits(b));
      a += kEntry;
      b += kEntry;
    }
  }
  return result;
}

// Block intersection for balanced runs (Inoue et al., PVLDB 8(3), 2014):
// four ranks from each run are compared all-pairs per step, so the only
// data-dependent branch left is the rare "some hub matched" one — a linear
// merge mispredicts on nearly every advance when runs interleave densely.
// Ranks are unique within a run, so a lane of `a` matches at most one lane
// of `b`. A side advances by a whole block when its 4th rank is <= the
// other side's 4th rank: none of its four ranks can match anything past
// the other side's block. Blocks left behind on the other side only hold
// ranks below every remaining `a` (or `b`) rank, so no pair is counted
// twice. The < 4-entry tails finish in the linear merge on the same result
// (without SIMD, the linear merge does the whole join).
JoinResult JoinPackedBlock(const uint8_t* a, const uint8_t* a_end,
                           const uint8_t* b, const uint8_t* b_end) {
  JoinResult result;
#if defined(CSC_ARENA_SIMD_SSE2) || defined(CSC_ARENA_SIMD_NEON)
  while (static_cast<size_t>(a_end - a) >= 4 * kEntry &&
         static_cast<size_t>(b_end - b) >= 4 * kEntry) {
#if defined(CSC_ARENA_SIMD_SSE2)
    const __m128i va = LoadRanks4(a);
    const __m128i vb = LoadRanks4(b);
    // va against vb rotated by 0-3 lanes: every lane pair exactly once.
    __m128i eq = _mm_cmpeq_epi32(va, vb);
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x39)));
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x4E)));
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x93)));
    for (int hits = LaneMask(eq); hits != 0; hits &= hits - 1) {
      const uint64_t a_bits = LoadBits(a + kEntry * __builtin_ctz(hits));
      const __m128i rank =
          _mm_set1_epi32(static_cast<int>(a_bits >> kRankShift));
      const int partner = __builtin_ctz(LaneMask(_mm_cmpeq_epi32(vb, rank)));
      Accumulate(result, a_bits, LoadBits(b + kEntry * partner));
    }
#else
    const uint32x4_t va = LoadRanks4(a);
    const uint32x4_t vb = LoadRanks4(b);
    uint32x4_t eq = vceqq_u32(va, vb);
    eq = vorrq_u32(eq, vceqq_u32(va, vextq_u32(vb, vb, 1)));
    eq = vorrq_u32(eq, vceqq_u32(va, vextq_u32(vb, vb, 2)));
    eq = vorrq_u32(eq, vceqq_u32(va, vextq_u32(vb, vb, 3)));
    for (uint64_t hits = LaneMask(eq); hits != 0;) {
      const int lane = __builtin_ctzll(hits) / 16;
      hits &= ~(uint64_t{0xFFFF} << (16 * lane));
      const uint64_t a_bits = LoadBits(a + kEntry * lane);
      const uint32x4_t rank =
          vdupq_n_u32(static_cast<uint32_t>(a_bits >> kRankShift));
      const int partner = __builtin_ctzll(LaneMask(vceqq_u32(vb, rank))) / 16;
      Accumulate(result, a_bits, LoadBits(b + kEntry * partner));
    }
#endif
    const Rank a_last = RankAt(a + 3 * kEntry);
    const Rank b_last = RankAt(b + 3 * kEntry);
    a += a_last <= b_last ? 4 * kEntry : 0;
    b += b_last <= a_last ? 4 * kEntry : 0;
  }
#endif
  return JoinPackedLinear(a, a_end, b, b_end, result);
}

// Branch-reduced merge whose advances skip with 4-wide rank comparisons —
// the moderately skewed path.
JoinResult JoinPackedMerge(const uint8_t* a, const uint8_t* a_end,
                           const uint8_t* b, const uint8_t* b_end) {
  JoinResult result;
  while (a != a_end && b != b_end) {
    Rank ra = RankAt(a);
    Rank rb = RankAt(b);
    if (ra == rb) {
      Accumulate(result, LoadBits(a), LoadBits(b));
      a += kEntry;
      b += kEntry;
    } else if (ra < rb) {
      a = SkipBelow(a + kEntry, a_end, rb);
    } else {
      b = SkipBelow(b + kEntry, b_end, ra);
    }
  }
  return result;
}

// Skewed-length path: walk the short run, gallop the long one.
JoinResult JoinPackedSkewed(const uint8_t* s, const uint8_t* s_end,
                            const uint8_t* l, const uint8_t* l_end) {
  JoinResult result;
  for (; s != s_end && l != l_end; s += kEntry) {
    uint64_t s_bits = LoadBits(s);
    Rank rs = static_cast<Rank>(s_bits >> kRankShift);
    l = GallopTo(l, l_end, rs);
    if (l == l_end) break;
    uint64_t l_bits = LoadBits(l);
    if (static_cast<Rank>(l_bits >> kRankShift) != rs) continue;
    Accumulate(result, s_bits, l_bits);
    l += kEntry;
  }
  return result;
}

// Kernel dispatch by run-length skew (cutoffs measured by
// bench_micro_kernels; see the header): gallop, SIMD-skip merge, or — the
// common, near-balanced case — block intersection (linear merge without
// SIMD). The join is symmetric (dist sums and count products commute), so
// the shorter run always drives.
JoinResult JoinPacked(const uint8_t* a, size_t na, const uint8_t* b,
                      size_t nb) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (na == 0) return {};
  if (nb >= LabelArena::kGallopMinLongerRun) {
    size_t skew = nb / na;
    if (skew >= LabelArena::kGallopSkewRatio) {
      return JoinPackedSkewed(a, a + na * kEntry, b, b + nb * kEntry);
    }
    if (skew >= LabelArena::kSimdSkewRatio) {
      return JoinPackedMerge(a, a + na * kEntry, b, b + nb * kEntry);
    }
  }
  return JoinPackedBlock(a, a + na * kEntry, b, b + nb * kEntry);
}

}  // namespace

JoinResult LabelArena::Join(const LabelArena& out_arena, Vertex s,
                            const LabelArena& in_arena, Vertex t) {
  return JoinPacked(out_arena.PackedRunBegin(s), out_arena.RunSize(s),
                    in_arena.PackedRunBegin(t), in_arena.RunSize(t));
}

JoinResult LabelArena::JoinLinear(const LabelArena& out_arena, Vertex s,
                                  const LabelArena& in_arena, Vertex t) {
  return JoinPackedLinear(out_arena.PackedRunBegin(s),
                          out_arena.PackedRunBegin(s + 1),
                          in_arena.PackedRunBegin(t),
                          in_arena.PackedRunBegin(t + 1));
}

std::optional<std::pair<Dist, Count>> LabelArena::FindHub(
    Vertex v, Rank hub_rank) const {
  const uint8_t* base = PackedRunBegin(v);
  const size_t n = RunSize(v);
  size_t lo = 0;
  size_t hi = n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (RankAt(base + mid * kEntry) < hub_rank) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < n) {
    LabelEntry e = LoadPackedEntry(base + lo * kEntry);
    if (e.hub() == hub_rank) return {{e.dist(), e.count()}};
  }
  return std::nullopt;
}

void LabelArena::Slice(const std::function<bool(Vertex)>& keep) {
  Vertex n = num_vertices();
  if (n == 0) return;
  const uint8_t* payload = payload_data();
  // Pass 1: the new run boundaries (one keep() call per vertex).
  std::vector<uint64_t> new_offsets(static_cast<size_t>(n) + 1, 0);
  for (Vertex v = 0; v < n; ++v) {
    new_offsets[v + 1] = new_offsets[v] + (keep(v) ? RunSize(v) : 0);
  }
  // Pass 2: copy the kept runs into fresh owned storage. The source may be
  // an unaligned mapping view, so entries move by memcpy only — never
  // through LabelEntry lvalues (the file-wide unaligned-load rule).
  decltype(payload_) kept(new_offsets[n] * kEntry);
  for (Vertex v = 0; v < n; ++v) {
    uint64_t run = new_offsets[v + 1] - new_offsets[v];
    if (run == 0) continue;
    std::memcpy(kept.data() + new_offsets[v] * kEntry,
                payload + offsets_[v] * kEntry, run * kEntry);
  }
  offsets_ = std::move(new_offsets);
  payload_ = std::move(kept);
  view_payload_ = nullptr;
  external_.reset();
}

LabelArena LabelArena::WithEditedRuns(
    const std::vector<std::pair<Vertex, LabelSet>>& edits) const {
  const Vertex n = num_vertices();
  LabelArena out;
  out.offsets_.assign(static_cast<size_t>(n) + 1, 0);
  const uint8_t* payload = payload_data();
  // Pass 1: new run boundaries.
  size_t next_edit = 0;
  for (Vertex v = 0; v < n; ++v) {
    uint64_t run = RunSize(v);
    if (next_edit < edits.size() && edits[next_edit].first == v) {
      run = edits[next_edit++].second.size();
    }
    out.offsets_[v + 1] = out.offsets_[v] + run;
  }
  // Pass 2: copy unedited runs (memcpy only — the source may be an
  // unaligned mapping view) and write the replacements in place.
  out.payload_.resize(out.SizeBytes());
  next_edit = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (next_edit < edits.size() && edits[next_edit].first == v) {
      out.PlaceRun(v, edits[next_edit++].second.entries());
      continue;
    }
    const uint64_t run = out.offsets_[v + 1] - out.offsets_[v];
    if (run == 0) continue;
    std::memcpy(out.payload_.data() + out.offsets_[v] * kEntry,
                payload + offsets_[v] * kEntry, run * kEntry);
  }
  return out;
}

namespace {

// The wire format's leading encoding byte. Only the packed entry words (0)
// remain; 1 marked the retired varint-triple payload, which no longer loads.
constexpr uint8_t kPackedEncoding = 0;

// Run lengths are LEB128 varints: 7 bits per byte, low group first, the
// high bit set on every byte but the last.
void AppendVarint(std::string& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>(static_cast<uint8_t>(value) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

// Bounded decode: never reads past `size`; false on a truncated or
// over-long varint.
bool ReadVarint(const uint8_t* data, size_t size, size_t& pos,
                uint64_t& value) {
  value = 0;
  for (int shift = 0;; shift += 7) {
    if (pos >= size || shift > 63) return false;
    uint8_t byte = data[pos++];
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
  }
}

}  // namespace

void LabelArena::AppendTo(std::string& out) const {
  out.push_back(static_cast<char>(kPackedEncoding));
  uint32_t n = num_vertices();
  char buf[4];
  std::memcpy(buf, &n, 4);
  out.append(buf, 4);
  for (Vertex v = 0; v < n; ++v) AppendVarint(out, RunSize(v));
  uint64_t payload_size = SizeBytes();
  if (payload_size > 0) {
    out.append(reinterpret_cast<const char*>(payload_data()), payload_size);
  }
}

std::optional<LabelArena> LabelArena::ParseImpl(
    const uint8_t* data, size_t size, size_t& pos, bool view,
    std::shared_ptr<const void> keep_alive) {
  if (size < pos || size - pos < 5) return std::nullopt;
  if (data[pos++] != kPackedEncoding) return std::nullopt;
  uint32_t n;
  std::memcpy(&n, data + pos, 4);
  pos += 4;
  // Each vertex contributes at least one run-length byte, so a count the
  // remaining buffer cannot describe is malformed — reject before sizing
  // the offsets table from attacker-controlled input.
  if (n > size - pos) return std::nullopt;
  LabelArena arena;
  arena.offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (uint32_t v = 0; v < n; ++v) {
    uint64_t run;
    if (!ReadVarint(data, size, pos, run)) return std::nullopt;
    // No run (and hence no offset sum) can exceed what the buffer could
    // possibly hold; rejecting here keeps the arithmetic below overflow-free.
    if (run > size || arena.offsets_[v] + run > size) {
      return std::nullopt;
    }
    arena.offsets_[v + 1] = arena.offsets_[v] + run;
  }
  const uint64_t entries = arena.offsets_[n];
  if (entries > (size - pos) / kEntry) return std::nullopt;
  if (view) {
    arena.view_payload_ = data + pos;
    arena.external_ = std::move(keep_alive);
  } else {
    arena.payload_.assign(data + pos, data + pos + entries * kEntry);
  }
  pos += entries * kEntry;
  return arena;
}

std::optional<LabelArena> LabelArena::Parse(const std::string& bytes,
                                            size_t& pos) {
  return ParseImpl(reinterpret_cast<const uint8_t*>(bytes.data()),
                   bytes.size(), pos, /*view=*/false, nullptr);
}

std::optional<LabelArena> LabelArena::Parse(const uint8_t* data, size_t size,
                                            size_t& pos) {
  return ParseImpl(data, size, pos, /*view=*/false, nullptr);
}

std::optional<LabelArena> LabelArena::ParseView(
    const uint8_t* data, size_t size, size_t& pos,
    std::shared_ptr<const void> keep_alive) {
  return ParseImpl(data, size, pos, /*view=*/true, std::move(keep_alive));
}

}  // namespace csc
