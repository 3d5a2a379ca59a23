// Figure 10 reproduction: average SCCnt query time (microseconds) per
// min-in-out-degree cluster (High .. Bottom), one sub-figure per dataset —
// generalized over the CycleIndex registry, so one binary reports any
// backend subset (CSC_BENCH_BACKENDS selects; default is the paper's
// BFS / HP-SPC / CSC comparison plus the flat serving forms). Every
// (dataset, cluster, backend) cell is also emitted to
// BENCH_fig10_query.json so perf history tracks the paper figure.
//
// Expected shape (paper §VI.B.3): BFS is orders of magnitude slower and
// degree-independent; HP-SPC degrades on high-degree clusters (its query
// fans out over min(indeg, outdeg) SPCnt probes); CSC and its serving forms
// stay flat at microseconds, up to two orders of magnitude faster than
// HP-SPC on the High cluster.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "core/cycle_index.h"
#include "util/timer.h"
#include "workload/query_workload.h"
#include "workload/reporter.h"

namespace {

constexpr size_t kMaxQueryVertices = 50000;  // the paper's cap
// BFS costs O(n + m) per query; cap how many probes each cluster pays for
// backends without an index.
constexpr size_t kMaxUnindexedQueriesPerCluster = 30;

bool IsUnindexed(const csc::BackendStats& stats) {
  return stats.label_entries == 0;
}

}  // namespace

int main() {
  using namespace csc;
  double scale = BenchScaleFromEnv();
  auto datasets = BenchDatasetsFromEnv();
  auto backends = bench::BenchBackendsFromEnv(
      {"bfs", "hpspc", "csc", "frozen"});
  bench::PrintBanner("Figure 10: Query Times (us) per degree cluster",
                     datasets, scale);
  std::printf("# backends: ");
  for (const auto& name : backends) std::printf("%s ", name.c_str());
  std::printf("(CSC_BENCH_BACKENDS to change)\n");

  std::vector<std::string> columns = {"Graph", "Cluster", "#queries"};
  columns.insert(columns.end(), backends.begin(), backends.end());
  TableReporter table("Figure 10: Average Query Time (us)", columns);
  // One flat row per (dataset, cluster, backend) so CI tracks every
  // backend's query-latency trajectory per degree cluster.
  JsonBenchReporter json("fig10_query");

  for (const DatasetSpec& spec : datasets) {
    DiGraph g = MaterializeDataset(spec, scale);
    QueryWorkload workload = MakeQueryWorkload(g, kMaxQueryVertices, 2022);

    // Build every backend once per dataset, then sweep the clusters.
    std::vector<std::unique_ptr<CycleIndex>> built;
    for (const auto& name : backends) {
      auto backend = MakeBackend(name);
      backend->Build(g);
      built.push_back(std::move(backend));
    }

    for (int c = 0; c < kNumDegreeClusters; ++c) {
      const auto& queries = workload.queries[c];
      if (queries.empty()) continue;
      std::vector<std::string> row = {
          spec.name, DegreeClusterName(static_cast<DegreeCluster>(c)),
          TableReporter::FormatCount(queries.size())};
      for (size_t b = 0; b < built.size(); ++b) {
        CycleIndex& backend = *built[b];
        // Unindexed backends answer on a truncated prefix (they dominate
        // runtime otherwise); indexed ones take the full cluster.
        size_t limit = IsUnindexed(backend.Stats())
                           ? std::min(queries.size(),
                                      kMaxUnindexedQueriesPerCluster)
                           : queries.size();
        Timer timer;
        for (size_t i = 0; i < limit; ++i) {
          backend.CountShortestCycles(queries[i]);
        }
        double avg_us = timer.ElapsedMicros() / limit;
        row.push_back(TableReporter::FormatDouble(avg_us, 2));
        json.BeginRow()
            .Field("dataset", spec.name)
            .Field("cluster", DegreeClusterName(static_cast<DegreeCluster>(c)))
            .Field("backend", backends[b])
            .Field("queries", static_cast<uint64_t>(limit))
            .Field("avg_query_us", avg_us);
      }
      table.AddRow(std::move(row));
    }
    std::printf("[fig10] %s done\n", spec.name.c_str());
  }
  table.Print();
  table.WriteCsv(bench::CsvPath("fig10_query"));
  json.Write("BENCH_fig10_query.json");
  return 0;
}
