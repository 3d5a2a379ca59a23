#include "csc/index_io.h"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "csc/frozen_index.h"
#include "graph/ordering.h"
#include "tests/test_util.h"
#include "util/env.h"

namespace csc {
namespace {

// A unique temp path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(::testing::TempDir() + "csc_index_io_" + tag + ".idx") {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

CompactIndex BuildCompact(uint64_t seed) {
  DiGraph graph = RandomGraph(50, 2.5, seed);
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  return CompactIndex::FromIndex(index);
}

// Reads and verifies the envelope at `path`, then parses its payload.
std::optional<CompactIndex> LoadCompact(const std::string& path) {
  std::string error;
  std::optional<std::string> payload = ReadVerifiedPayload(path, &error);
  EXPECT_TRUE(payload.has_value()) << error;
  if (!payload) return std::nullopt;
  return CompactIndex::Deserialize(*payload);
}

// The envelope error reading `path` yields; empty if it verifies.
std::string EnvelopeError(const std::string& path) {
  std::string error;
  std::optional<std::string> payload = ReadVerifiedPayload(path, &error);
  EXPECT_EQ(payload.has_value(), error.empty()) << error;
  return error;
}

TEST(IndexIoTest, RoundTripPreservesIndex) {
  TempFile file("roundtrip");
  CompactIndex original = BuildCompact(1);
  ASSERT_TRUE(SavePayloadToFile(original.Serialize(), file.path()));
  std::optional<CompactIndex> loaded = LoadCompact(file.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, original);
}

TEST(IndexIoTest, RoundTripServesIdenticalQueries) {
  TempFile file("queries");
  DiGraph graph = RandomGraph(60, 3.0, 7);
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  ASSERT_TRUE(SavePayloadToFile(CompactIndex::FromIndex(index).Serialize(),
                                file.path()));
  std::optional<CompactIndex> loaded = LoadCompact(file.path());
  ASSERT_TRUE(loaded.has_value());
  FrozenIndex served = FrozenIndex::FromCompact(*loaded);
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(served.Query(v), index.Query(v)) << "vertex " << v;
  }
}

TEST(IndexIoTest, MissingFileReportsIoError) {
  EXPECT_NE(EnvelopeError("/nonexistent/path/index.idx").find("cannot read"),
            std::string::npos);
}

TEST(IndexIoTest, EmptyFileRejected) {
  TempFile file("empty");
  ASSERT_TRUE(WriteStringToFile(file.path(), ""));
  EXPECT_NE(EnvelopeError(file.path()).find("too small"), std::string::npos);
}

TEST(IndexIoTest, ForeignFileRejectedByMagic) {
  TempFile file("foreign");
  ASSERT_TRUE(WriteStringToFile(file.path(),
                                std::string(64, 'A')));  // no magic
  EXPECT_NE(EnvelopeError(file.path()).find("bad magic"), std::string::npos);
}

TEST(IndexIoTest, TruncationDetected) {
  TempFile file("truncated");
  ASSERT_TRUE(SavePayloadToFile(BuildCompact(2).Serialize(), file.path()));
  std::optional<std::string> bytes = ReadFileToString(file.path());
  ASSERT_TRUE(bytes.has_value());
  // Cut the file short (drop the last 8 bytes).
  ASSERT_GT(bytes->size(), 8u);
  ASSERT_TRUE(
      WriteStringToFile(file.path(), bytes->substr(0, bytes->size() - 8)));
  EXPECT_NE(EnvelopeError(file.path()).find("truncated"), std::string::npos);
}

TEST(IndexIoTest, EveryPayloadBitFlipIsCaught) {
  // Failure injection: flip one bit at a stride of payload positions; each
  // corruption must be rejected by the checksum (never parsed as valid).
  TempFile file("bitflip");
  ASSERT_TRUE(SavePayloadToFile(BuildCompact(3).Serialize(), file.path()));
  std::optional<std::string> pristine = ReadFileToString(file.path());
  ASSERT_TRUE(pristine.has_value());
  const size_t header = 16;  // magic + size
  const size_t footer = 4;   // crc
  ASSERT_GT(pristine->size(), header + footer);
  for (size_t pos = header; pos + footer < pristine->size(); pos += 97) {
    std::string corrupted = *pristine;
    corrupted[pos] ^= 0x10;
    ASSERT_TRUE(WriteStringToFile(file.path(), corrupted));
    EXPECT_NE(EnvelopeError(file.path()).find("checksum"), std::string::npos)
        << "undetected bit flip at byte " << pos;
  }
}

TEST(IndexIoTest, CorruptedCrcFieldDetected) {
  TempFile file("crc");
  ASSERT_TRUE(SavePayloadToFile(BuildCompact(4).Serialize(), file.path()));
  std::optional<std::string> bytes = ReadFileToString(file.path());
  ASSERT_TRUE(bytes.has_value());
  bytes->back() ^= 0xff;  // damage the stored checksum itself
  ASSERT_TRUE(WriteStringToFile(file.path(), *bytes));
  EXPECT_FALSE(EnvelopeError(file.path()).empty());
}

TEST(IndexIoTest, EmptyGraphIndexRoundTrips) {
  TempFile file("emptygraph");
  CscIndex index = CscIndex::Build(DiGraph(), DegreeOrdering(DiGraph()));
  ASSERT_TRUE(SavePayloadToFile(CompactIndex::FromIndex(index).Serialize(),
                                file.path()));
  std::optional<CompactIndex> loaded = LoadCompact(file.path());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_original_vertices(), 0u);
}

TEST(ShardedBundleTest, PartitionFlagsRoundTrip) {
  const std::vector<std::string> shards = {"alpha", "beta-payload"};
  for (bool sliced : {false, true}) {
    for (bool custom_fn : {false, true}) {
      ShardedBundleInfo info;
      info.sliced = sliced;
      info.custom_shard_fn = custom_fn;
      std::string bundle = WrapShardedPayload(shards, 123, info);
      ASSERT_TRUE(IsShardedPayload(bundle));
      std::string error;
      std::optional<ShardedPayload> parsed =
          ParseShardedPayload(bundle, &error);
      ASSERT_TRUE(parsed) << error;
      EXPECT_EQ(parsed->num_vertices, 123u);
      EXPECT_EQ(parsed->shards, shards);
      EXPECT_EQ(parsed->info.sliced, sliced);
      EXPECT_EQ(parsed->info.custom_shard_fn, custom_fn);
    }
  }
}

TEST(ShardedBundleTest, Revision1BundleStillParses) {
  // Hand-build the pre-flags revision ("CSCSHRD1": no flags word) from a
  // current bundle by rewriting the header — old files on disk must keep
  // loading, with all-clear partition flags.
  const std::vector<std::string> shards = {"one", "two", "three"};
  ShardedBundleInfo info;
  info.sliced = true;  // the flags word being dropped is the point
  std::string v2 = WrapShardedPayload(shards, 77, info);
  constexpr size_t kMagic = 8;
  std::string v1 = "CSCSHRD1";
  v1.append(v2, kMagic, 2 * sizeof(uint32_t));   // shard count + vertices
  v1.append(v2, kMagic + 3 * sizeof(uint32_t),   // frames, skipping flags
            std::string::npos);
  ASSERT_TRUE(IsShardedPayload(v1));
  std::string error;
  std::optional<ShardedPayload> parsed = ParseShardedPayload(v1, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(parsed->num_vertices, 77u);
  EXPECT_EQ(parsed->shards, shards);
  EXPECT_FALSE(parsed->info.sliced);
  EXPECT_FALSE(parsed->info.custom_shard_fn);
}

}  // namespace
}  // namespace csc
