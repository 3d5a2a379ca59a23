// Property sweep across every query-serving form of the index: for random
// graphs from four generator families, the dynamic index and the compact
// (§IV.E) reduction served from packed arenas agree with the BFS oracle on
// every vertex — and with the SCC
// structural invariant (SCCnt(v) > 0 iff v's component is non-trivial).
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "baseline/bfs_cycle.h"
#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "csc/frozen_index.h"
#include "csc/girth.h"
#include "graph/generators.h"
#include "graph/ordering.h"
#include "graph/scc.h"
#include "tests/test_util.h"

namespace csc {
namespace {

enum class Family { kErdosRenyi, kPowerLaw, kSmallWorld, kSbm };

std::string FamilyName(Family family) {
  switch (family) {
    case Family::kErdosRenyi:
      return "ErdosRenyi";
    case Family::kPowerLaw:
      return "PowerLaw";
    case Family::kSmallWorld:
      return "SmallWorld";
    case Family::kSbm:
      return "Sbm";
  }
  return "?";
}

DiGraph MakeGraph(Family family, Vertex n, uint64_t seed) {
  switch (family) {
    case Family::kErdosRenyi:
      return GenerateErdosRenyi(n, static_cast<uint64_t>(2.5 * n), seed);
    case Family::kPowerLaw:
      return GeneratePreferentialAttachment(n, 2, 0.15, seed);
    case Family::kSmallWorld:
      return GenerateSmallWorld(n, 2, 0.2, seed);
    case Family::kSbm: {
      SbmConfig config;
      config.num_vertices = n;
      config.num_blocks = 4;
      config.intra_p = 8.0 / n;
      config.inter_p = 0.5 / n;
      return GenerateStochasticBlockModel(config, seed);
    }
  }
  return DiGraph();
}

using Param = std::tuple<Family, Vertex, uint64_t>;

class ServingFormsTest : public ::testing::TestWithParam<Param> {};

TEST_P(ServingFormsTest, EveryFormAgreesWithOracleAndSccInvariant) {
  auto [family, n, seed] = GetParam();
  SCOPED_TRACE(FamilyName(family) + " n=" + std::to_string(n) +
               " seed=" + std::to_string(seed));
  DiGraph graph = MakeGraph(family, n, seed);

  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  CompactIndex compact = CompactIndex::FromIndex(index);
  FrozenIndex frozen = FrozenIndex::FromCompact(compact);
  SccResult scc = ComputeScc(graph);
  BfsCycleCounter oracle(graph);

  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    CycleCount truth = oracle.CountCycles(v);
    ASSERT_EQ(index.Query(v), truth) << "dynamic, vertex " << v;
    ASSERT_EQ(frozen.Query(v), truth) << "frozen, vertex " << v;
    ASSERT_EQ(truth.count > 0, scc.OnCycle(v)) << "SCC invariant, vertex "
                                               << v;
  }
}

TEST_P(ServingFormsTest, GirthAgreesAcrossForms) {
  auto [family, n, seed] = GetParam();
  DiGraph graph = MakeGraph(family, n, seed + 1000);
  CscIndex index = CscIndex::Build(graph, DegreeOrdering(graph));
  FrozenIndex frozen = FrozenIndex::FromIndex(index);
  GirthInfo dynamic_girth = ComputeGirth(index);
  GirthInfo frozen_girth = ComputeGirth(frozen);
  EXPECT_EQ(dynamic_girth.girth, frozen_girth.girth);
  EXPECT_EQ(dynamic_girth.num_girth_vertices,
            frozen_girth.num_girth_vertices);
  // Cross-check girth against the oracle sweep.
  BfsCycleCounter oracle(graph);
  Dist oracle_girth = kInfDist;
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    CycleCount c = oracle.CountCycles(v);
    if (c.count > 0) oracle_girth = std::min(oracle_girth, c.length);
  }
  EXPECT_EQ(dynamic_girth.girth, oracle_girth);
}

INSTANTIATE_TEST_SUITE_P(
    SweepFamiliesSizesSeeds, ServingFormsTest,
    ::testing::Combine(
        ::testing::Values(Family::kErdosRenyi, Family::kPowerLaw,
                          Family::kSmallWorld, Family::kSbm),
        ::testing::Values<Vertex>(32, 96),
        ::testing::Values<uint64_t>(1, 2, 3)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return FamilyName(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace csc
