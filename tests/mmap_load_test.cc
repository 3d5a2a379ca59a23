// The zero-copy load path: serving a persisted index straight from a
// read-only file mapping (IndexFile + CycleIndex::LoadView) must answer
// bit-identically to the copying Parse path for every loadable backend,
// reject corrupted or truncated mappings, and share one mapping across the
// K shard replicas of a ShardedEngine.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cycle_index.h"
#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "csc/girth.h"
#include "csc/index_io.h"
#include "graph/ordering.h"
#include "serving/engine.h"
#include "serving/sharded_engine.h"
#include "tests/test_util.h"
#include "util/env.h"

namespace csc {
namespace {

// A unique temp path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(::testing::TempDir() + "csc_mmap_" + tag + ".idx") {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The backends with a persistent load path.
class MmapLoadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MmapLoadTest, MappingServesIdenticalQueriesToParse) {
  const std::string& backend = GetParam();
  TempFile file("roundtrip_" + backend);
  DiGraph graph = RandomGraph(70, 2.5, 11);
  std::unique_ptr<CycleIndex> built = MakeBackend(backend);
  built->Build(graph);
  ASSERT_TRUE(SaveBackendToFile(*built, file.path()));

  BackendLoadResult parsed = LoadBackendFromFile(file.path(), backend);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  std::string error;
  std::shared_ptr<IndexFile> mapping = IndexFile::Open(file.path(), &error);
  ASSERT_NE(mapping, nullptr) << error;
  BackendLoadResult mapped = LoadBackendFromMapping(mapping, backend);
  ASSERT_TRUE(mapped.ok()) << mapped.error;

  ASSERT_EQ(mapped.index->num_vertices(), graph.num_vertices());
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    CycleCount expected = built->CountShortestCycles(v);
    EXPECT_EQ(parsed.index->CountShortestCycles(v), expected) << "v=" << v;
    EXPECT_EQ(mapped.index->CountShortestCycles(v), expected) << "v=" << v;
  }
}

TEST_P(MmapLoadTest, MappedIndexOutlivesTheFileHandle) {
  const std::string& backend = GetParam();
  DiGraph graph = RandomGraph(40, 2.5, 13);
  std::unique_ptr<CycleIndex> built = MakeBackend(backend);
  built->Build(graph);
  std::unique_ptr<CycleIndex> mapped;
  {
    TempFile file("lifetime_" + backend);
    ASSERT_TRUE(SaveBackendToFile(*built, file.path()));
    std::shared_ptr<IndexFile> mapping = IndexFile::Open(file.path());
    ASSERT_NE(mapping, nullptr);
    BackendLoadResult loaded = LoadBackendFromMapping(mapping, backend);
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    mapped = std::move(loaded.index);
    // `mapping` and TempFile go out of scope here; the index's keep-alive
    // reference must keep the mapping itself valid (POSIX keeps mapped
    // pages across unlink).
  }
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(mapped->CountShortestCycles(v), built->CountShortestCycles(v));
  }
}

INSTANTIATE_TEST_SUITE_P(LoadableBackends, MmapLoadTest,
                         ::testing::Values("csc", "frozen"),
                         [](const auto& info) { return info.param; });

// A file holding the compact interchange payload has no arena to view, so
// every CSC backend loads it from the mapping by the copying fallback — and
// keeps no reference to the mapping.
TEST(MmapLoadTest, CompactPayloadLoadsIntoEveryCscBackendByCopy) {
  TempFile file("compact_payload");
  DiGraph graph = RandomGraph(60, 2.5, 37);
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  ASSERT_TRUE(SavePayloadToFile(CompactIndex::FromIndex(index).Serialize(),
                                file.path()));
  std::string error;
  std::shared_ptr<IndexFile> mapping = IndexFile::Open(file.path(), &error);
  ASSERT_NE(mapping, nullptr) << error;
  for (const char* backend : {"csc", "frozen"}) {
    BackendLoadResult mapped = LoadBackendFromMapping(mapping, backend);
    ASSERT_TRUE(mapped.ok()) << backend << ": " << mapped.error;
    EXPECT_EQ(mapping.use_count(), 1) << backend;
    for (Vertex v = 0; v < graph.num_vertices(); ++v) {
      EXPECT_EQ(mapped.index->CountShortestCycles(v), index.Query(v))
          << backend << " v=" << v;
    }
  }
}

TEST(MmapLoadTest, CorruptedFileIsRejectedAtOpen) {
  TempFile file("corrupt");
  std::unique_ptr<CycleIndex> built = MakeBackend("frozen");
  built->Build(RandomGraph(50, 2.5, 17));
  ASSERT_TRUE(SaveBackendToFile(*built, file.path()));
  std::optional<std::string> bytes = ReadFileToString(file.path());
  ASSERT_TRUE(bytes.has_value());
  // Flip one payload byte: the envelope CRC over the mapped bytes must
  // catch it before any backend sees the payload.
  (*bytes)[bytes->size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteStringToFile(file.path(), *bytes));
  std::string error;
  EXPECT_EQ(IndexFile::Open(file.path(), &error), nullptr);
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(MmapLoadTest, TruncatedFileIsRejectedAtOpen) {
  TempFile file("truncated");
  std::unique_ptr<CycleIndex> built = MakeBackend("frozen");
  built->Build(RandomGraph(50, 2.5, 19));
  ASSERT_TRUE(SaveBackendToFile(*built, file.path()));
  std::optional<std::string> bytes = ReadFileToString(file.path());
  ASSERT_TRUE(bytes.has_value());
  ASSERT_TRUE(
      WriteStringToFile(file.path(), bytes->substr(0, bytes->size() / 2)));
  std::string error;
  EXPECT_EQ(IndexFile::Open(file.path(), &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(MmapLoadTest, GarbagePayloadInsideValidEnvelopeIsRejectedByParseView) {
  // A well-formed envelope (magic + size + CRC all valid) around a payload
  // that is not a parsable index: the arena-level view validation must
  // reject it, not crash on it.
  TempFile file("garbage");
  std::string payload = "CSCF";  // frozen magic
  // An in arena of 16 vertices (encoding byte 0, then the u32 count) whose
  // run lengths never terminate: every byte carries the continuation bit.
  payload += std::string("\x00\x10\x00\x00\x00", 5);
  payload += std::string(64, '\x81');
  ASSERT_TRUE(SavePayloadToFile(payload, file.path()));
  std::shared_ptr<IndexFile> mapping = IndexFile::Open(file.path());
  ASSERT_NE(mapping, nullptr);  // the envelope itself is fine
  BackendLoadResult mapped = LoadBackendFromMapping(mapping, "frozen");
  EXPECT_FALSE(mapped.ok());
}

TEST(MmapLoadTest, EngineLoadFromFileMatchesBuild) {
  TempFile file("engine");
  DiGraph graph = RandomGraph(60, 3.0, 23);
  EngineOptions options;
  options.backend = "frozen";
  Engine built(options);
  ASSERT_TRUE(built.Build(graph));
  std::string payload;
  ASSERT_TRUE(built.SaveTo(payload));
  ASSERT_TRUE(SavePayloadToFile(payload, file.path()));

  Engine served(options);
  std::string error;
  ASSERT_TRUE(served.LoadFromFile(file.path(), &error)) << error;
  EXPECT_EQ(served.QueryAll(), built.QueryAll());
  EXPECT_EQ(served.Girth().girth, built.Girth().girth);
}

TEST(MmapLoadTest, EngineLoadFromFileRejectsShardedBundles) {
  TempFile file("engine_bundle");
  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 2;
  ShardedEngine sharded(options);
  ASSERT_TRUE(sharded.Build(RandomGraph(40, 2.5, 29)));
  std::string payload;
  ASSERT_TRUE(sharded.SaveTo(payload));
  ASSERT_TRUE(SavePayloadToFile(payload, file.path()));
  EngineOptions single_options;
  single_options.backend = "frozen";
  Engine engine(single_options);
  std::string error;
  EXPECT_FALSE(engine.LoadFromFile(file.path(), &error));
  EXPECT_NE(error.find("multi-shard"), std::string::npos) << error;
}

TEST(MmapLoadTest, ShardedEngineSharesOneMappingAcrossShards) {
  TempFile file("sharded");
  DiGraph graph = RandomGraph(80, 2.5, 31);
  EngineOptions single_options;
  single_options.backend = "frozen";
  Engine single(single_options);
  ASSERT_TRUE(single.Build(graph));

  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 3;
  ShardedEngine built(options);
  ASSERT_TRUE(built.Build(graph));
  std::string payload;
  ASSERT_TRUE(built.SaveTo(payload));
  ASSERT_TRUE(SavePayloadToFile(payload, file.path()));

  // Load through one shared mapping, deliberately from an engine configured
  // with a different shard count (the bundle's count must win).
  ShardedEngineOptions other;
  other.backend = "frozen";
  other.num_shards = 7;
  ShardedEngine served(other);
  std::string error;
  ASSERT_TRUE(served.LoadFromFile(file.path(), &error)) << error;
  EXPECT_EQ(served.num_shards(), 3u);
  EXPECT_EQ(served.QueryAll(), single.QueryAll());
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(served.Query(v), single.Query(v)) << "v=" << v;
  }
}

// --- Seeded randomized corruption sweep -----------------------------------
//
// Bit-flips and truncations over the two on-disk formats, exercising the
// parsers' rejection paths (and, under the CI ASan/UBSan jobs, proving no
// corrupted input makes them read out of bounds). Deterministic: the same
// seeds flip the same bits on every run.

// A corrupted file must either be rejected with a diagnostic or — when the
// flip misses every checked byte, e.g. inside the ignored tail of a
// short-write — load into a well-formed index. It must never crash.
void ExpectRejectsOrLoads(const std::string& path, const std::string& backend,
                          const std::string& what) {
  std::string error;
  std::shared_ptr<IndexFile> mapping = IndexFile::Open(path, &error);
  if (!mapping) {
    EXPECT_FALSE(error.empty()) << what;
    return;
  }
  BackendLoadResult loaded = LoadBackendFromMapping(mapping, backend);
  if (loaded.ok()) {
    (void)loaded.index->CountShortestCycles(0);
  } else {
    EXPECT_FALSE(loaded.error.empty()) << what;
  }
}

TEST(CorruptionSweepTest, SingleIndexBitFlipsNeverCrash) {
  TempFile file("sweep_single");
  DiGraph graph = RandomGraph(50, 2.5, 17);
  std::unique_ptr<CycleIndex> built = MakeBackend("frozen");
  built->Build(graph);
  ASSERT_TRUE(SaveBackendToFile(*built, file.path()));
  std::string pristine = ReadFileToString(file.path()).value();
  Rng rng(0xC0FFEE);
  for (int round = 0; round < 64; ++round) {
    std::string mutated = pristine;
    size_t byte = static_cast<size_t>(rng.Next() % mutated.size());
    mutated[byte] ^= static_cast<char>(1u << (rng.Next() % 8));
    ASSERT_TRUE(WriteStringToFile(file.path(), mutated));
    ExpectRejectsOrLoads(file.path(), "frozen",
                         "bit flip in byte " + std::to_string(byte));
  }
}

TEST(CorruptionSweepTest, SingleIndexTruncationsNeverCrash) {
  TempFile file("sweep_truncate");
  DiGraph graph = RandomGraph(50, 2.5, 19);
  std::unique_ptr<CycleIndex> built = MakeBackend("frozen");
  built->Build(graph);
  ASSERT_TRUE(SaveBackendToFile(*built, file.path()));
  std::string pristine = ReadFileToString(file.path()).value();
  Rng rng(0xDECAF);
  for (int round = 0; round < 32; ++round) {
    size_t keep = static_cast<size_t>(rng.Next() % pristine.size());
    ASSERT_TRUE(WriteStringToFile(file.path(), pristine.substr(0, keep)));
    std::string error;
    // A truncated envelope can never verify (the declared size is gone or
    // the CRC footer is) — strict open must always reject.
    EXPECT_EQ(IndexFile::Open(file.path(), &error), nullptr)
        << "keep=" << keep;
    EXPECT_FALSE(error.empty());
  }
}

TEST(CorruptionSweepTest, ShardedBundleBitFlipsNeverCrash) {
  TempFile file("sweep_bundle");
  DiGraph graph = RandomGraph(60, 2.5, 23);
  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 4;
  ShardedEngine built(options);
  ASSERT_TRUE(built.Build(graph));
  std::string bundle;
  ASSERT_TRUE(built.SaveTo(bundle));
  ASSERT_TRUE(SavePayloadToFile(bundle, file.path()));
  std::string pristine = ReadFileToString(file.path()).value();
  ShardedEngineOptions tolerant = options;
  tolerant.tolerate_faults = true;
  Rng rng(0xBEEF);
  for (int round = 0; round < 64; ++round) {
    std::string mutated = pristine;
    size_t byte = static_cast<size_t>(rng.Next() % mutated.size());
    mutated[byte] ^= static_cast<char>(1u << (rng.Next() % 8));
    ASSERT_TRUE(WriteStringToFile(file.path(), mutated));
    // Both the strict path and the lenient degraded path must walk the
    // damaged frame without faulting: strict rejects, tolerant either
    // rejects (structural damage) or loads with shards quarantined.
    ShardedEngine strict(options);
    std::string error;
    if (strict.LoadFromFile(file.path(), &error)) {
      // The flip landed in ignored bytes; servable as-is.
    } else {
      EXPECT_FALSE(error.empty()) << "byte=" << byte;
    }
    ShardedEngine lenient(tolerant);
    if (lenient.LoadFromFile(file.path(), &error)) {
      (void)lenient.Query(0);
    }
  }
}

TEST(CorruptionSweepTest, ShardedBundleTruncationsNeverCrash) {
  TempFile file("sweep_bundle_truncate");
  DiGraph graph = RandomGraph(40, 2.0, 29);
  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 3;
  options.tolerate_faults = true;
  ShardedEngine built(options);
  ASSERT_TRUE(built.Build(graph));
  std::string bundle;
  ASSERT_TRUE(built.SaveTo(bundle));
  Rng rng(0xFACADE);
  for (int round = 0; round < 32; ++round) {
    // Truncate the raw bundle (no file envelope): LoadFrom's lenient walk
    // sees the torn frame directly.
    size_t keep = static_cast<size_t>(rng.Next() % bundle.size());
    ShardedEngine engine(options);
    std::string error;
    EXPECT_FALSE(engine.LoadFrom(bundle.substr(0, keep), &error))
        << "keep=" << keep;
  }
}

}  // namespace
}  // namespace csc
