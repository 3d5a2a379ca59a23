#include "core/label_arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "labeling/hub_labeling.h"
#include "util/random.h"

namespace csc {
namespace {

// Deterministic random label sets with ascending hub ranks, realistic small
// distances, and mostly-1 counts.
std::vector<LabelSet> RandomLabelSets(Vertex n, uint64_t seed) {
  Rng rng(seed);
  std::vector<LabelSet> sets(n);
  for (Vertex v = 0; v < n; ++v) {
    Rank rank = 0;
    size_t entries = rng.NextBounded(8);  // some vertices stay empty
    for (size_t i = 0; i < entries; ++i) {
      rank += 1 + static_cast<Rank>(rng.NextBounded(50));
      auto dist = static_cast<Dist>(rng.NextBounded(12));
      auto count = static_cast<Count>(1 + rng.NextBounded(4));
      sets[v].Append(LabelEntry(rank, dist, count));
    }
  }
  return sets;
}

TEST(LabelArenaTest, RoundTripsLabelSets) {
  std::vector<LabelSet> sets = RandomLabelSets(40, 7);
  LabelArena arena = LabelArena::FromLabelSets(sets);
  ASSERT_EQ(arena.num_vertices(), 40u);
  uint64_t expected_entries = 0;
  for (Vertex v = 0; v < 40; ++v) {
    EXPECT_EQ(arena.DecodeRun(v), sets[v]) << "vertex " << v;
    EXPECT_EQ(arena.RunSize(v), sets[v].size());
    expected_entries += sets[v].size();
  }
  EXPECT_EQ(arena.total_entries(), expected_entries);
}

TEST(LabelArenaTest, JoinMatchesJoinLabels) {
  std::vector<LabelSet> outs = RandomLabelSets(30, 11);
  std::vector<LabelSet> ins = RandomLabelSets(30, 13);
  LabelArena out_arena = LabelArena::FromLabelSets(outs);
  LabelArena in_arena = LabelArena::FromLabelSets(ins);
  for (Vertex s = 0; s < 30; ++s) {
    for (Vertex t = 0; t < 30; t += 3) {
      EXPECT_EQ(LabelArena::Join(out_arena, s, in_arena, t),
                JoinLabels(outs[s], ins[t]))
          << "s=" << s << " t=" << t;
    }
  }
}

TEST(LabelArenaTest, FindHubMatchesLabelSetFind) {
  std::vector<LabelSet> sets = RandomLabelSets(25, 17);
  LabelArena arena = LabelArena::FromLabelSets(sets);
  for (Vertex v = 0; v < 25; ++v) {
    for (Rank r = 0; r < 300; r += 7) {
      const LabelEntry* expected = sets[v].Find(r);
      auto actual = arena.FindHub(v, r);
      if (expected == nullptr) {
        EXPECT_FALSE(actual.has_value()) << "v=" << v << " r=" << r;
      } else {
        ASSERT_TRUE(actual.has_value()) << "v=" << v << " r=" << r;
        EXPECT_EQ(actual->first, expected->dist());
        EXPECT_EQ(actual->second, expected->count());
      }
    }
  }
}

TEST(LabelArenaTest, SerializationRoundTrips) {
  std::vector<LabelSet> sets = RandomLabelSets(32, 23);
  LabelArena arena = LabelArena::FromLabelSets(sets);
  std::string bytes;
  arena.AppendTo(bytes);
  size_t pos = 0;
  auto parsed = LabelArena::Parse(bytes, pos);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(*parsed, arena);
}

TEST(LabelArenaTest, ParseRejectsTruncation) {
  LabelArena arena = LabelArena::FromLabelSets(RandomLabelSets(16, 29));
  std::string bytes;
  arena.AppendTo(bytes);
  for (size_t cut = 0; cut + 1 < bytes.size(); cut += 9) {
    std::string truncated = bytes.substr(0, cut);
    size_t pos = 0;
    EXPECT_FALSE(LabelArena::Parse(truncated, pos).has_value())
        << "cut=" << cut;
  }
}

// Label sets of `entries` ranks spread across a shared `universe`, so runs
// of very different lengths still interleave end to end — the shapes that
// cross the join kernel's dispatch cutoffs (linear / SIMD merge / gallop).
LabelSet SpanningSet(size_t entries, Rank universe, uint64_t seed) {
  Rng rng(seed);
  LabelSet labels;
  Rank stride = entries == 0 ? 1 : universe / static_cast<Rank>(entries);
  if (stride < 1) stride = 1;
  Rank rank = 0;
  for (size_t i = 0; i < entries; ++i) {
    rank += 1 + static_cast<Rank>(rng.NextBounded(2 * stride - 1));
    labels.Append(LabelEntry(rank, static_cast<Dist>(rng.NextBounded(12)),
                             1 + rng.NextBounded(4)));
  }
  return labels;
}

TEST(LabelArenaJoinKernelTest, AllKernelsAgreeAcrossSkews) {
  // Sizes straddling every dispatch boundary: below kGallopMinLongerRun,
  // at the SIMD skew cutoff, past the gallop cutoff, plus empty runs — and
  // on and around the block kernel's 4-entry block edges.
  const size_t sizes[] = {0,  1,  3,  4,  5,  7,   8,   9,    15,
                          31, 32, 33, 63, 64, 192, 512, 2048};
  int pair_index = 0;
  for (size_t na : sizes) {
    for (size_t nb : sizes) {
      Rank universe = static_cast<Rank>(4 * (na > nb ? na : nb) + 4);
      LabelSet a_set = SpanningSet(na, universe, 101 + pair_index);
      LabelSet b_set = SpanningSet(nb, universe, 207 + pair_index);
      ++pair_index;
      LabelArena a = LabelArena::FromLabelSets({a_set});
      LabelArena b = LabelArena::FromLabelSets({b_set});
      JoinResult expected = JoinLabels(a_set, b_set);
      EXPECT_EQ(LabelArena::JoinLinear(a, 0, b, 0), expected)
          << "na=" << na << " nb=" << nb;
      EXPECT_EQ(LabelArena::Join(a, 0, b, 0), expected)
          << "na=" << na << " nb=" << nb;
      EXPECT_EQ(LabelArena::Join(b, 0, a, 0), expected)
          << "swapped na=" << na << " nb=" << nb;
    }
  }
}

TEST(LabelArenaJoinKernelTest, SkewedKernelsHandleDegenerateOverlaps) {
  // Identical runs (every rank matches), disjoint rank ranges (long run
  // entirely above / below the short one), and a single common hub at the
  // very end — the galloping path's corner geometries.
  LabelSet small;
  for (Rank r = 5000; r < 5016; ++r) small.Append(LabelEntry(r, 2, 1));
  LabelSet identical = small;
  LabelSet below;
  for (Rank r = 0; r < 1024; ++r) below.Append(LabelEntry(r, 3, 2));
  LabelSet above;
  for (Rank r = 10000; r < 11024; ++r) above.Append(LabelEntry(r, 4, 1));
  LabelSet tail = below;
  tail.Append(LabelEntry(5015, 7, 3));  // one hit, last entry of `small`
  for (const LabelSet& other : {identical, below, above, tail}) {
    LabelArena a = LabelArena::FromLabelSets({small});
    LabelArena b = LabelArena::FromLabelSets({other});
    JoinResult expected = JoinLabels(small, other);
    EXPECT_EQ(LabelArena::Join(a, 0, b, 0), expected);
    EXPECT_EQ(LabelArena::Join(b, 0, a, 0), expected);
    EXPECT_EQ(LabelArena::JoinLinear(a, 0, b, 0), expected);
  }
}

TEST(LabelArenaJoinKernelTest, TiedMinimumHubsSumAcrossBlocksAndTail) {
  // Every common hub sits at the same minimum distance, so the answer is
  // the sum of all their count products: hits land in every lane of the
  // 4-entry blocks, in blocks where only one side advances, and in the
  // scalar tail (sizes are not multiples of 4). A larger-distance hit up
  // front and one in the tail must not disturb the minimum.
  LabelSet a;
  LabelSet b;
  Count expected_count = 0;
  a.Append(LabelEntry(0, 9, 5));  // common, but not at the minimum
  b.Append(LabelEntry(0, 9, 7));
  for (Rank r = 1; r < 60; ++r) {
    const bool in_a = r % 5 != 3;
    const bool in_b = r % 6 != 2;
    const Count ca = 1 + r % 4;
    const Count cb = 1 + r % 3;
    if (in_a) a.Append(LabelEntry(r, 1 + r % 2, ca));
    if (in_b) b.Append(LabelEntry(r, 2 - r % 2, cb));
    if (in_a && in_b) expected_count += ca * cb;
  }
  a.Append(LabelEntry(61, 2, 3));  // tail hit at a larger distance
  b.Append(LabelEntry(61, 5, 3));
  ASSERT_NE(a.size() % 4, 0u);
  ASSERT_NE(b.size() % 4, 0u);
  LabelArena out = LabelArena::FromLabelSets({a});
  LabelArena in = LabelArena::FromLabelSets({b});
  const JoinResult expected{3, expected_count};
  EXPECT_EQ(JoinLabels(a, b), expected);
  EXPECT_EQ(LabelArena::Join(out, 0, in, 0), expected);
  EXPECT_EQ(LabelArena::Join(in, 0, out, 0), expected);
  EXPECT_EQ(LabelArena::JoinLinear(out, 0, in, 0), expected);
}

TEST(LabelArenaJoinKernelTest, JoinOverUnalignedViewPayload) {
  // A view-backed arena whose packed payload starts at an odd address: the
  // kernels' 16-byte SIMD loads must all be unaligned-safe.
  const size_t sizes[] = {1, 4, 5, 7, 8, 9, 31, 32, 33, 64, 192};
  std::vector<LabelSet> sets;
  sets.reserve(std::size(sizes));
  for (size_t i = 0; i < std::size(sizes); ++i) {
    sets.push_back(SpanningSet(sizes[i], 4 * 192 + 4, 301 + i));
  }
  LabelArena owned = LabelArena::FromLabelSets(sets);
  std::string wire;
  owned.AppendTo(wire);
  for (size_t pad = 0; pad < 2; ++pad) {
    auto bytes = std::make_shared<std::string>(pad, '\0');
    bytes->append(wire);
    size_t pos = pad;
    auto view = LabelArena::ParseView(
        reinterpret_cast<const uint8_t*>(bytes->data()), bytes->size(), pos,
        bytes);
    ASSERT_TRUE(view.has_value());
    if (reinterpret_cast<uintptr_t>(view->payload_data()) % 2 == 0) continue;
    for (Vertex s = 0; s < owned.num_vertices(); ++s) {
      for (Vertex t = 0; t < owned.num_vertices(); ++t) {
        const JoinResult expected = JoinLabels(sets[s], sets[t]);
        EXPECT_EQ(LabelArena::Join(*view, s, *view, t), expected)
            << "s=" << s << " t=" << t;
        EXPECT_EQ(LabelArena::Join(*view, s, owned, t), expected)
            << "s=" << s << " t=" << t;
      }
    }
    return;
  }
  FAIL() << "neither padding put the payload at an odd address";
}

TEST(LabelArenaViewTest, ParseViewMatchesParseAndOwnedArena) {
  std::vector<LabelSet> sets = RandomLabelSets(40, 53);
  LabelArena arena = LabelArena::FromLabelSets(sets);
  auto bytes = std::make_shared<std::string>();
  arena.AppendTo(*bytes);
  size_t pos = 0;
  auto parsed = LabelArena::Parse(*bytes, pos);
  ASSERT_TRUE(parsed.has_value());
  pos = 0;
  auto view = LabelArena::ParseView(
      reinterpret_cast<const uint8_t*>(bytes->data()), bytes->size(), pos,
      bytes);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(pos, bytes->size());
  EXPECT_TRUE(view->is_view());
  EXPECT_FALSE(parsed->is_view());
  EXPECT_EQ(*view, arena);
  EXPECT_EQ(*view, *parsed);
  EXPECT_EQ(view->total_entries(), arena.total_entries());
  EXPECT_LT(view->OwnedBytes(), view->MemoryBytes());
  for (Vertex v = 0; v < arena.num_vertices(); ++v) {
    EXPECT_EQ(view->DecodeRun(v), sets[v]) << "vertex " << v;
    EXPECT_EQ(LabelArena::Join(*view, v, arena, v),
              LabelArena::Join(arena, v, arena, v));
  }
  // Serializing a view reproduces the original wire bytes.
  std::string reserialized;
  view->AppendTo(reserialized);
  EXPECT_EQ(reserialized, *bytes);
}

TEST(LabelArenaViewTest, ParseViewRejectsTruncation) {
  LabelArena arena = LabelArena::FromLabelSets(RandomLabelSets(16, 59));
  std::string bytes;
  arena.AppendTo(bytes);
  for (size_t cut = 0; cut + 1 < bytes.size(); cut += 7) {
    size_t pos = 0;
    EXPECT_FALSE(LabelArena::ParseView(
                     reinterpret_cast<const uint8_t*>(bytes.data()), cut, pos,
                     nullptr)
                     .has_value())
        << "cut=" << cut;
  }
}

TEST(LabelArenaViewTest, ViewOutlivesTheOriginalHandle) {
  std::vector<LabelSet> sets = RandomLabelSets(10, 61);
  LabelArena arena = LabelArena::FromLabelSets(sets);
  auto bytes = std::make_shared<std::string>();
  arena.AppendTo(*bytes);
  size_t pos = 0;
  auto view = LabelArena::ParseView(
      reinterpret_cast<const uint8_t*>(bytes->data()), bytes->size(), pos,
      bytes);
  ASSERT_TRUE(view.has_value());
  LabelArena copy = *view;  // copies share the keep-alive
  view.reset();
  bytes.reset();  // the arena's own reference must keep the buffer alive
  for (Vertex v = 0; v < copy.num_vertices(); ++v) {
    EXPECT_EQ(copy.DecodeRun(v), sets[v]);
  }
}

TEST(LabelArenaViewTest, SliceKeepsOnlySelectedRuns) {
  std::vector<LabelSet> sets = RandomLabelSets(30, 67);
  LabelArena arena = LabelArena::FromLabelSets(sets);
  uint64_t full_bytes = arena.SizeBytes();
  LabelArena sliced = arena;
  auto keep = [](Vertex v) { return v % 3 == 0; };
  sliced.Slice(keep);
  EXPECT_EQ(sliced.num_vertices(), arena.num_vertices());
  uint64_t kept_entries = 0;
  for (Vertex v = 0; v < arena.num_vertices(); ++v) {
    if (keep(v)) {
      EXPECT_EQ(sliced.DecodeRun(v), sets[v]) << "vertex " << v;
      kept_entries += sets[v].size();
      EXPECT_EQ(LabelArena::Join(sliced, v, arena, v),
                LabelArena::Join(arena, v, arena, v));
    } else {
      EXPECT_EQ(sliced.RunSize(v), 0u) << "vertex " << v;
    }
  }
  EXPECT_EQ(sliced.total_entries(), kept_entries);
  EXPECT_LT(sliced.SizeBytes(), full_bytes);
}

TEST(LabelArenaViewTest, SlicingAViewMaterializesTheKeptRuns) {
  std::vector<LabelSet> sets = RandomLabelSets(20, 71);
  LabelArena arena = LabelArena::FromLabelSets(sets);
  auto bytes = std::make_shared<std::string>();
  arena.AppendTo(*bytes);
  size_t pos = 0;
  auto view = LabelArena::ParseView(
      reinterpret_cast<const uint8_t*>(bytes->data()), bytes->size(), pos,
      bytes);
  ASSERT_TRUE(view.has_value());
  view->Slice([](Vertex v) { return v < 10; });
  EXPECT_FALSE(view->is_view());
  bytes.reset();  // sliced arenas own their payload; the mapping can go
  for (Vertex v = 0; v < 10; ++v) {
    EXPECT_EQ(view->DecodeRun(v), sets[v]);
  }
  for (Vertex v = 10; v < 20; ++v) {
    EXPECT_EQ(view->RunSize(v), 0u);
  }
}

// Runs of 0, 127, 128 and 16,384 entries: run-length prefixes of one, two
// and three bytes on the wire.
std::vector<LabelSet> RunLengthBoundarySets() {
  std::vector<LabelSet> sets(4);
  const size_t lengths[] = {0, 127, 128, 16384};
  for (size_t i = 0; i < std::size(lengths); ++i) {
    for (size_t e = 0; e < lengths[i]; ++e) {
      sets[i].Append(LabelEntry(static_cast<Vertex>(3 * e + i),
                                static_cast<Dist>(e % 13), 1 + e % 5));
    }
  }
  return sets;
}

TEST(LabelArenaTest, RunLengthPrefixesRoundTripAtByteBoundaries) {
  std::vector<LabelSet> sets = RunLengthBoundarySets();
  LabelArena arena = LabelArena::FromLabelSets(sets);
  auto bytes = std::make_shared<std::string>();
  arena.AppendTo(*bytes);
  // u8 encoding | u32 n | prefixes of 1 + 1 + 2 + 3 bytes | payload.
  const size_t header = 1 + 4 + 1 + 1 + 2 + 3;
  ASSERT_EQ(bytes->size(), header + arena.SizeBytes());
  size_t pos = 0;
  auto parsed = LabelArena::Parse(*bytes, pos);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(pos, bytes->size());
  pos = 0;
  auto view = LabelArena::ParseView(
      reinterpret_cast<const uint8_t*>(bytes->data()), bytes->size(), pos,
      bytes);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(pos, bytes->size());
  for (const LabelArena* loaded : {&*parsed, &*view}) {
    EXPECT_EQ(*loaded, arena);
    for (Vertex v = 0; v < sets.size(); ++v) {
      EXPECT_EQ(loaded->RunSize(v), sets[v].size()) << "vertex " << v;
      EXPECT_EQ(loaded->DecodeRun(v), sets[v]) << "vertex " << v;
    }
  }
}

TEST(LabelArenaTest, ParseRejectsTruncationInsideARunLengthPrefix) {
  LabelArena arena = LabelArena::FromLabelSets(RunLengthBoundarySets());
  std::string bytes;
  arena.AppendTo(bytes);
  // The prefixes start after the 5-byte header: run 2's two bytes at 7-8,
  // run 3's three bytes at 9-11. Cut after each non-final prefix byte.
  for (size_t cut : {size_t{8}, size_t{10}, size_t{11}}) {
    ASSERT_NE(static_cast<uint8_t>(bytes[cut - 1]) & 0x80, 0) << "cut=" << cut;
    size_t pos = 0;
    EXPECT_FALSE(LabelArena::Parse(bytes.substr(0, cut), pos).has_value())
        << "cut=" << cut;
    pos = 0;
    EXPECT_FALSE(LabelArena::ParseView(
                     reinterpret_cast<const uint8_t*>(bytes.data()), cut, pos,
                     nullptr)
                     .has_value())
        << "cut=" << cut;
  }
}

TEST(LabelArenaCursorTest, CursorEdgeCases) {
  // Empty run, single-entry run, and the extreme ranks (rank 0 and the
  // 23-bit maximum).
  std::vector<LabelSet> sets(4);
  sets[1].Append(LabelEntry(7, 3, 2));
  sets[2].Append(LabelEntry(0, 1, 1));
  sets[2].Append(LabelEntry(static_cast<Vertex>(LabelEntry::kMaxHub), 5, 9));
  sets[3].Append(LabelEntry(static_cast<Vertex>(LabelEntry::kMaxHub), 2, 1));
  LabelArena arena = LabelArena::FromLabelSets(sets);
  EXPECT_EQ(arena.RunSize(0), 0u);
  LabelArena::Cursor empty = arena.RunCursor(0);
  EXPECT_FALSE(empty.Next());
  for (Vertex v = 0; v < 4; ++v) {
    EXPECT_EQ(arena.DecodeRun(v), sets[v]) << "vertex " << v;
  }
  EXPECT_EQ(arena.FindHub(2, static_cast<Rank>(LabelEntry::kMaxHub))->first,
            5u);
  EXPECT_EQ(arena.FindHub(3, 0), std::nullopt);
  // The extreme ranks survive a serialization round trip.
  std::string bytes;
  arena.AppendTo(bytes);
  size_t pos = 0;
  auto parsed = LabelArena::Parse(bytes, pos);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, arena);
}

TEST(LabelArenaTest, ParseRejectsOversizedVertexCountWithoutAllocating) {
  // A crafted header claiming 2^32-1 vertices in a 5-byte payload must be
  // rejected as malformed, not sized into a giant offsets table.
  std::string evil = {'\x00', '\xff', '\xff', '\xff', '\xff'};
  size_t pos = 0;
  EXPECT_FALSE(LabelArena::Parse(evil, pos).has_value());
  // Same with a run length that overflows the offset arithmetic.
  std::string big_run = {'\x00', '\x01', '\x00', '\x00', '\x00',
                         '\xff', '\xff', '\xff', '\xff', '\xff',
                         '\xff', '\xff', '\xff', '\xff', '\x01'};
  pos = 0;
  EXPECT_FALSE(LabelArena::Parse(big_run, pos).has_value());
}

TEST(LabelArenaTest, OwnedPayloadOfAPageIsPageAligned) {
  // An owned payload of a page or more sits on pages of its own, so freeing
  // the arena returns them to the system; edited and sliced copies stay
  // byte-identical to arenas built from their label sets.
  constexpr uintptr_t kPage = 4096;
  std::vector<LabelSet> sets = RandomLabelSets(4000, 71);
  auto expect_aligned = [&](const LabelArena& arena, const char* what) {
    ASSERT_GE(arena.SizeBytes(), kPage) << what;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(arena.payload_data()) % kPage, 0u)
        << what;
  };
  LabelArena arena = LabelArena::FromLabelSets(sets);
  expect_aligned(arena, "built");

  std::vector<std::pair<Vertex, LabelSet>> edits;
  std::vector<LabelSet> edited_sets = sets;
  for (Vertex v = 3; v < 4000; v += 97) {
    LabelSet edited;
    for (Rank r = 0; r < v % 9; ++r) edited.Append(LabelEntry(2 * r, r, 1));
    edits.push_back({v, edited});
    edited_sets[v] = edited;
  }
  LabelArena edited = arena.WithEditedRuns(edits);
  expect_aligned(edited, "edited");
  EXPECT_EQ(edited, LabelArena::FromLabelSets(edited_sets));

  LabelArena sliced = arena;
  sliced.Slice([](Vertex v) { return v % 3 != 0; });
  expect_aligned(sliced, "sliced");
  std::vector<LabelSet> kept = sets;
  for (Vertex v = 0; v < kept.size(); v += 3) kept[v] = LabelSet();
  EXPECT_EQ(sliced, LabelArena::FromLabelSets(kept));
}

TEST(LabelArenaTest, EmptyArena) {
  LabelArena arena;
  EXPECT_EQ(arena.num_vertices(), 0u);
  EXPECT_EQ(arena.total_entries(), 0u);
  EXPECT_EQ(arena.SizeBytes(), 0u);
  LabelArena built = LabelArena::FromLabelSets({});
  EXPECT_EQ(built.num_vertices(), 0u);
  std::string bytes;
  built.AppendTo(bytes);
  size_t pos = 0;
  auto parsed = LabelArena::Parse(bytes, pos);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_vertices(), 0u);
}

}  // namespace
}  // namespace csc
