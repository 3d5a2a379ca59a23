// Pinned construction output. The determinism suite compares the parallel
// builders against the sequential ones, so a change that alters both in the
// same way passes it. This suite pins the output itself: for a few seeded
// graphs, a CRC-32C of the serialized index and all five LabelBuildStats
// counters, recorded from a known-good build. Every builder path (sequential
// and rank-batched CSC at 1 and 4 workers, and HP-SPC) must reproduce them.
// CSC builds also pin a CRC-32C over all four label sets of the full
// labeling (L_in and L_out of both v_i and v_o), expanded from the two the
// index stores by CompactIndex::ExpandToFull, so the two couple halves the
// index and the serving form drop are held to the same output as the two
// they keep.
// The flat serving forms are pinned too, as CRC-32Cs of what their backends
// save after a registry Build, so a build chain that drops or reorders a run
// between the labeling and the served payload fails here even when every
// thread count agrees.
//
// A deliberate change to what the builders emit must re-record the table
// (each failure prints the observed row) and say why in its change notes.
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cycle_index.h"
#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "graph/generators.h"
#include "graph/ordering.h"
#include "hpspc/hpspc_index.h"
#include "util/checksum.h"
#include "workload/datasets.h"

namespace csc {
namespace {

constexpr unsigned kBuildThreads[] = {0, 1, 4};

struct PinnedOutput {
  uint32_t crc = 0;
  uint64_t entries = 0;
  uint64_t canonical_entries = 0;
  uint64_t non_canonical_entries = 0;
  uint64_t vertices_dequeued = 0;
  uint64_t pruned_by_distance = 0;

  friend bool operator==(const PinnedOutput&, const PinnedOutput&) = default;
};

void PrintTo(const PinnedOutput& p, std::ostream* os) {
  *os << "{0x" << std::hex << p.crc << std::dec << "u, " << p.entries << ", "
      << p.canonical_entries << ", " << p.non_canonical_entries << ", "
      << p.vertices_dequeued << ", " << p.pruned_by_distance << "}";
}

// CRC-32C of the frozen backend's SaveTo payload. "csc" saves the same
// packed arena as "frozen"; the compact serialization is pinned in
// `csc.crc`.
struct PinnedFlat {
  uint32_t frozen = 0;
};

struct PinnedGraph {
  std::string name;
  DiGraph (*make)();
  PinnedOutput csc;
  uint32_t csc_labeling = 0;  // LabelingCrc of the full CSC labeling
  PinnedOutput hpspc;
  PinnedFlat flat;
};

PinnedOutput Observe(uint32_t crc, const LabelBuildStats& stats) {
  return {crc,
          stats.entries,
          stats.canonical_entries,
          stats.non_canonical_entries,
          stats.vertices_dequeued,
          stats.pruned_by_distance};
}

// CRC-32C over a labeling: per vertex, the in-set then the out-set, each as
// its size followed by its packed entries, all little-endian.
uint32_t LabelingCrc(const HubLabeling& labeling) {
  uint32_t crc = 0;
  auto put = [&crc](uint64_t word) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<unsigned char>(word >> (8 * i));
    }
    crc = Crc32cExtend(crc, bytes, sizeof(bytes));
  };
  for (Vertex v = 0; v < labeling.num_vertices(); ++v) {
    for (const LabelSet* set : {&labeling.in[v], &labeling.out[v]}) {
      put(set->size());
      for (const LabelEntry& e : set->entries()) put(e.bits());
    }
  }
  return crc;
}

const std::vector<PinnedGraph>& PinnedGraphs() {
  static const std::vector<PinnedGraph> graphs = {
      {"erdos_renyi",
       [] { return GenerateErdosRenyi(400, 2000, 13); },
       {0x82324108u, 107479, 66673, 40806, 74463, 20879},
       0x0c0c2488u,
       {0xb5e973f6u, 53495, 33112, 20383, 74339, 20844},
       {0x2a80b079u}},
      {"erdos_renyi_dense",
       [] { return GenerateErdosRenyi(250, 2500, 5); },
       {0xc4632726u, 75189, 39340, 35849, 49213, 11693},
       0x52eeb672u,
       {0x6518fb98u, 37419, 19523, 17896, 49071, 11652},
       {0x0ad5a6e0u}},
      {"power_law",
       [] { return GeneratePreferentialAttachment(600, 3, 0.2, 7); },
       {0x73bef05du, 44592, 27404, 17188, 30690, 8612},
       0x8c90a552u,
       {0xce714ba7u, 21914, 13370, 8544, 30526, 8612},
       {0x9bf0e27eu}},
      {"power_law_reciprocal",
       [] { return GeneratePreferentialAttachment(800, 2, 0.4, 19); },
       {0x4eb703e8u, 44214, 30725, 13489, 27676, 5851},
       0xed858c7eu,
       {0xb55499fbu, 21589, 14926, 6663, 27439, 5850},
       {0xb4c5661bu}},
      {"wkt",
       [] { return MaterializeDataset(FindDataset("WKT").value(), 0.02); },
       {0xf7b7d2a5u, 40801, 32576, 8225, 23356, 3464},
       0xe20a3547u,
       {0x9ac17e8du, 19809, 15703, 4106, 23271, 3462},
       {0x4237971bu}},
  };
  return graphs;
}

const PinnedGraph& FindPinnedGraph(const std::string& name) {
  for (const PinnedGraph& g : PinnedGraphs()) {
    if (g.name == name) return g;
  }
  ADD_FAILURE() << "no pinned graph " << name;
  return PinnedGraphs().front();
}

// Checks one CSC build against its pinned serving payload, stats and full
// labeling; prints the observed row on a mismatch.
void ExpectPinnedCsc(const CscIndex& index, const PinnedOutput& csc,
                     uint32_t csc_labeling, const std::string& context) {
  PinnedOutput observed =
      Observe(Crc32c(CompactIndex::FromIndex(index).Serialize()),
              index.build_stats());
  EXPECT_EQ(observed, csc) << context;
  uint32_t labeling =
      LabelingCrc(CompactIndex::FromIndex(index).ExpandToFull());
  EXPECT_EQ(labeling, csc_labeling)
      << context << " full labeling observed 0x" << std::hex << labeling;
}

TEST(BuildOutputPinnedTest, CscIndexAtEveryBuildPath) {
  for (const PinnedGraph& g : PinnedGraphs()) {
    DiGraph graph = g.make();
    VertexOrdering order = DegreeOrdering(graph);
    for (unsigned threads : kBuildThreads) {
      CscIndex::Options options;
      options.build_threads = threads;
      CscIndex index = CscIndex::Build(graph, order, options);
      const std::string context =
          g.name + " build_threads=" + std::to_string(threads);
      ExpectPinnedCsc(index, g.csc, g.csc_labeling, context);
      // The parallel builder's first phase ran the top hub level-split, and
      // at 4 workers split some of its levels across them.
      if (threads > 0) {
        EXPECT_GE(index.build_stats().split_hubs, 1u) << context;
      }
      if (threads > 1) {
        EXPECT_GT(index.build_stats().split_levels, 0u) << context;
      }
    }
  }
  // One graph again with reserved vertices: isolated, lowest-ranked
  // vertices appended before indexing.
  const PinnedOutput kReserved = {0xf872bff0u, 44617, 27429, 17188, 30700,
                                  8612};
  const uint32_t kReservedLabeling = 0xc6ae80dfu;
  DiGraph graph = FindPinnedGraph("power_law").make();
  VertexOrdering order = DegreeOrdering(graph);
  for (unsigned threads : kBuildThreads) {
    CscIndex::Options options;
    options.build_threads = threads;
    options.reserve_vertices = 5;
    ExpectPinnedCsc(CscIndex::Build(graph, order, options), kReserved,
                    kReservedLabeling,
                    "power_law reserve=5 build_threads=" +
                        std::to_string(threads));
  }
}

// The couple-skip builder with distance pruning off (the ablation of line
// 13): labels are non-minimal, and the stats count no canonical entries.
TEST(BuildOutputPinnedTest, CscAblationWithoutDistancePruning) {
  const PinnedOutput kPinned = {0xc045b77fu, 120666, 3300, 0, 59830, 0};
  const uint32_t kPinnedLabeling = 0x0aedd87cu;
  DiGraph graph = FindPinnedGraph("wkt").make();
  CscAblationConfig config;
  config.disable_distance_pruning = true;
  ExpectPinnedCsc(BuildCscAblation(graph, DegreeOrdering(graph), config),
                  kPinned, kPinnedLabeling, "wkt without distance pruning");
}

TEST(BuildOutputPinnedTest, HpSpcIndexAtEveryBuildPath) {
  for (const PinnedGraph& g : PinnedGraphs()) {
    DiGraph graph = g.make();
    VertexOrdering order = DegreeOrdering(graph);
    for (unsigned threads : kBuildThreads) {
      HpSpcIndex index = HpSpcIndex::Build(graph, order, threads);
      PinnedOutput observed =
          Observe(LabelingCrc(index.labeling()), index.build_stats());
      EXPECT_EQ(observed, g.hpspc)
          << g.name << " build_threads=" << threads;
    }
  }
}

TEST(BuildOutputPinnedTest, FlatPayloadsAtEveryBuildPath) {
  for (const PinnedGraph& g : PinnedGraphs()) {
    DiGraph graph = g.make();
    for (unsigned threads : kBuildThreads) {
      CycleIndex::BuildOptions options;
      options.num_threads = threads;
      for (const auto& [name, pinned] :
           {std::pair<const char*, uint32_t>{"csc", g.flat.frozen},
            {"frozen", g.flat.frozen}}) {
        std::unique_ptr<CycleIndex> backend = MakeBackend(name);
        backend->Build(graph, options);
        std::string payload;
        ASSERT_TRUE(backend->SaveTo(payload)) << name;
        EXPECT_EQ(Crc32c(payload), pinned)
            << g.name << " " << name << " num_threads=" << threads
            << " observed 0x" << std::hex << Crc32c(payload);
      }
    }
  }
}

}  // namespace
}  // namespace csc
