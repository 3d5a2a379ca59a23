// LabelStore (labeling/label_store.h) holds the label sets a CSC build
// grows: each owner's sets in its own slab of mapped pages, grown through a
// ladder of capacities, reusing what the owner freed, and handed back to
// the system owner by owner.
#include "labeling/label_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/ordering.h"
#include "util/random.h"

namespace csc {
namespace {

LabelEntry Entry(Rank hub) { return LabelEntry(hub, hub % 7, 1 + hub % 3); }

// Set k's expected run after `size` appends of Entry(0), Entry(1), ...
void ExpectRun(const LabelStore& store, size_t k, Rank size) {
  const std::span<const LabelEntry> run = store[k];
  ASSERT_EQ(run.size(), size) << "set " << k;
  for (Rank r = 0; r < size; ++r) {
    ASSERT_EQ(run[r], Entry(r)) << "set " << k << " entry " << r;
  }
}

TEST(LabelStoreTest, GrowsAcrossCapacitySteps) {
  LabelStore store(3, 1, 0);
  for (Rank r = 0; r < 5000; ++r) {
    store.Append(1, Entry(r));
    const LabelStoreStats stats = store.Stats();
    ASSERT_EQ(stats.live_bytes, (r + 1) * sizeof(LabelEntry));
    ASSERT_LE(stats.capacity_bytes * 4, stats.live_bytes * 5) << r;
  }
  ExpectRun(store, 1, 5000);
  EXPECT_TRUE(store[0].empty());
  EXPECT_TRUE(store[2].empty());
}

TEST(LabelStoreTest, OwnerReusesTheCapacityItFreed) {
  LabelStore store(2, 1, 0);
  store.Append(0, Entry(0));
  const LabelEntry* first = store[0].data();
  store.Append(0, Entry(1));  // moves to the next step, freeing `first`
  ASSERT_NE(store[0].data(), first);
  const uint64_t mapped = store.Stats().mapped_bytes;
  store.Append(1, Entry(0));
  EXPECT_EQ(store[1].data(), first);
  EXPECT_EQ(store.Stats().reused_bytes, sizeof(LabelEntry));
  EXPECT_EQ(store.Stats().mapped_bytes, mapped);
  ExpectRun(store, 0, 2);
  ExpectRun(store, 1, 1);
}

TEST(LabelStoreTest, SetsBelongToOwnersByBlocks) {
  LabelStore store(40, 3, 2);  // blocks of 4 sets
  for (size_t k = 0; k < store.size(); ++k) {
    EXPECT_EQ(store.OwnerOf(k), (k / 4) % 3) << k;
  }
  std::vector<size_t> seen(store.size(), 0);
  for (unsigned t = 0; t < store.owners(); ++t) {
    size_t last = 0;
    bool first = true;
    store.ForEachOf(t, [&](size_t k) {
      EXPECT_EQ(store.OwnerOf(k), t);
      EXPECT_TRUE(first || k > last);
      first = false;
      last = k;
      ++seen[k];
    });
  }
  for (size_t k = 0; k < seen.size(); ++k) EXPECT_EQ(seen[k], 1u) << k;
}

TEST(LabelStoreTest, GrowingOneSetLeavesOtherSetsUnchanged) {
  // Two owners: growing a set of owner 0 moves no set of owner 1, and every
  // set of either keeps its entries, through step changes and compactions.
  LabelStore store(256, 2, 3);
  Rng rng(5);
  std::vector<Rank> sizes(store.size(), 0);
  for (int round = 0; round < 20000; ++round) {
    const size_t k = rng.NextBounded(store.size());
    store.Append(k, Entry(sizes[k]++));
  }
  std::vector<const LabelEntry*> owner1_data;
  for (size_t k = 0; k < store.size(); ++k) {
    if (store.OwnerOf(k) == 1) owner1_data.push_back(store[k].data());
  }
  for (Rank r = 0; r < 3000; ++r) store.Append(0, Entry(sizes[0]++));
  size_t i = 0;
  for (size_t k = 0; k < store.size(); ++k) {
    ExpectRun(store, k, sizes[k]);
    if (store.OwnerOf(k) == 1) {
      EXPECT_EQ(store[k].data(), owner1_data[i++]) << "set " << k;
    }
  }
}

TEST(LabelStoreTest, LockstepGrowthStaysNearTheSetsCapacity) {
  // Every set growing by one entry per round, as the top hubs of a build
  // grow them, leaves each step's capacities free at once, where no later
  // set can take them; the owner compacts rather than map beside them. The
  // slabs stay within 1.25x of the capacity the sets hold, plus a few
  // 256 KB chunks per owner (without compacting they would reach 5x).
  LabelStore store(4096, 2, 6);
  for (Rank r = 0; r < 60; ++r) {
    for (size_t k = 0; k < store.size(); ++k) store.Append(k, Entry(r));
  }
  for (size_t k = 0; k < store.size(); ++k) ExpectRun(store, k, 60);
  const LabelStoreStats stats = store.Stats();
  EXPECT_LE(stats.capacity_bytes * 4, stats.live_bytes * 5);
  EXPECT_LE(stats.mapped_high_water_bytes,
            stats.capacity_bytes * 5 / 4 + 2 * 3 * (size_t{1} << 18));
}

TEST(LabelStoreTest, ReleaseReturnsEveryMappedByte) {
  LabelStore store(100, 4, 1);
  for (Rank r = 0; r < 50; ++r) {
    for (size_t k = 0; k < store.size(); k += 1 + r % 3) {
      store.Append(k, Entry(static_cast<Rank>(store[k].size())));
    }
  }
  ASSERT_GT(store.Stats().mapped_bytes, 0u);
  uint64_t before = store.Stats().mapped_bytes;
  for (unsigned t = 0; t < store.owners(); ++t) {
    store.Release(t);
    const uint64_t after = store.Stats().mapped_bytes;
    EXPECT_LT(after, before) << "owner " << t;
    before = after;
    store.ForEachOf(t, [&](size_t k) { EXPECT_TRUE(store[k].empty()); });
  }
  EXPECT_EQ(store.Stats().mapped_bytes, 0u);
  EXPECT_EQ(store.Stats().live_bytes, 0u);
  EXPECT_EQ(store.Stats().capacity_bytes, 0u);
}

}  // namespace
}  // namespace csc
