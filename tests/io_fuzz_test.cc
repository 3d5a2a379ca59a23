// Deterministic fuzzing of the three byte-consuming entry points: the SNAP
// edge-list parser, the compact-index deserializer, and the checksummed
// file loader. None of them may crash, hang, or return a structurally
// broken object on arbitrary input — they either parse or reject.
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "csc/frozen_index.h"
#include "csc/index_io.h"
#include "graph/graph_io.h"
#include "graph/ordering.h"
#include "tests/test_util.h"
#include "util/env.h"
#include "util/random.h"

namespace csc {
namespace {

// Random bytes, biased toward printable/structural characters so the parser
// fuzz actually exercises tokenizer paths, not just "binary garbage".
std::string RandomBytes(Rng& rng, size_t size, bool printable_bias) {
  static const char kStructural[] = "0123456789 \t\n#%-+.eE";
  std::string out;
  out.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    if (printable_bias && rng.NextBool(0.8)) {
      out.push_back(kStructural[rng.NextBounded(sizeof(kStructural) - 1)]);
    } else {
      out.push_back(static_cast<char>(rng.NextBounded(256)));
    }
  }
  return out;
}

TEST(ParserFuzzTest, ArbitraryTextNeverCrashesAndResultIsConsistent) {
  Rng rng(1);
  for (int round = 0; round < 300; ++round) {
    std::string text = RandomBytes(rng, rng.NextBounded(400), true);
    std::optional<DiGraph> graph = ParseEdgeList(text);
    if (!graph) continue;
    // Whatever parsed must be a structurally sound graph.
    uint64_t edges = 0;
    for (Vertex v = 0; v < graph->num_vertices(); ++v) {
      EXPECT_FALSE(graph->HasEdge(v, v));
      edges += graph->OutDegree(v);
    }
    EXPECT_EQ(edges, graph->num_edges());
    // And it must round trip through the writer exactly.
    std::optional<DiGraph> reparsed = ParseEdgeList(ToEdgeListText(*graph));
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(*reparsed, *graph);
  }
}

TEST(ParserFuzzTest, MutatedValidInputNeverCrashes) {
  std::string valid = ToEdgeListText(RandomGraph(30, 2.5, 2));
  Rng rng(3);
  for (int round = 0; round < 300; ++round) {
    std::string mutated = valid;
    // Flip a handful of random bytes.
    for (int flips = 0; flips < 4; ++flips) {
      mutated[rng.NextBounded(mutated.size())] =
          static_cast<char>(rng.NextBounded(256));
    }
    ParseEdgeList(mutated);  // must not crash; result value is free
  }
}

TEST(DeserializeFuzzTest, ArbitraryBytesRejectedOrParsed) {
  Rng rng(4);
  for (int round = 0; round < 300; ++round) {
    std::string bytes = RandomBytes(rng, rng.NextBounded(600), false);
    std::optional<CompactIndex> index = CompactIndex::Deserialize(bytes);
    if (index) {
      // If it parsed, serving queries on every declared vertex must be safe.
      FrozenIndex served = FrozenIndex::FromCompact(*index);
      for (Vertex v = 0; v < served.num_original_vertices(); ++v) {
        served.Query(v);
      }
    }
  }
}

TEST(DeserializeFuzzTest, TruncationsOfValidPayloadAreRejected) {
  DiGraph graph = RandomGraph(40, 2.5, 5);
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  std::string bytes = CompactIndex::FromIndex(index).Serialize();
  // Every strict prefix must be rejected (or at minimum not crash); step a
  // prime to keep runtime bounded.
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    std::optional<CompactIndex> parsed =
        CompactIndex::Deserialize(bytes.substr(0, cut));
    EXPECT_FALSE(parsed.has_value()) << "prefix of " << cut << " bytes";
  }
}

TEST(IndexFileFuzzTest, RandomFilesNeverLoad) {
  std::string path = ::testing::TempDir() + "csc_fuzz_index.idx";
  Rng rng(6);
  for (int round = 0; round < 60; ++round) {
    ASSERT_TRUE(
        WriteStringToFile(path, RandomBytes(rng, rng.NextBounded(500), false)));
    std::string error;
    // 16-byte magic+size headers plus CRC make an accidental pass
    // effectively impossible; assert it outright.
    EXPECT_FALSE(ReadVerifiedPayload(path, &error).has_value())
        << "round " << round;
    EXPECT_FALSE(error.empty());
  }
  std::remove(path.c_str());
}

TEST(IndexFileFuzzTest, ByteFlipsOnValidFileAreAlwaysRejected) {
  std::string path = ::testing::TempDir() + "csc_fuzz_flip.idx";
  DiGraph graph = RandomGraph(30, 2.0, 7);
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  ASSERT_TRUE(
      SavePayloadToFile(CompactIndex::FromIndex(index).Serialize(), path));
  std::string pristine = *ReadFileToString(path);

  Rng rng(8);
  for (int round = 0; round < 200; ++round) {
    std::string corrupted = pristine;
    size_t pos = rng.NextBounded(corrupted.size());
    char flip = static_cast<char>(1 + rng.NextBounded(255));
    corrupted[pos] ^= flip;
    ASSERT_TRUE(WriteStringToFile(path, corrupted));
    std::string error;
    EXPECT_FALSE(ReadVerifiedPayload(path, &error).has_value())
        << "byte " << pos << " xor " << int{flip};
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace csc
