// Figure 11 reproduction: (a) average incremental update time and (b) index
// increase (# of label entries) per edge insertion, under the minimality and
// redundancy strategies.
//
// Workload (paper §VI.A): random existing edges are removed from the graph
// up front, the index is built on the reduced graph, and the removed edges
// are inserted back one at a time through INCCNT.
//
// Expected shape (paper §VI.C.1): redundancy updates are orders of magnitude
// faster than minimality (58-678x in the paper) while the index grows only
// slightly more; minimality is skipped for the largest graphs (the paper
// omits it for WAR and WSR for the same reason). Each edge is its own
// landing, so the minimality column times one CLEAN_LABEL per inserted edge:
// the changed sets' own entries, then one scan of every stored entry for the
// holders of their owners as hubs (dynamic/clean.h).
#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.h"
#include "csc/csc_index.h"
#include "dynamic/incremental.h"
#include "graph/ordering.h"
#include "workload/reporter.h"
#include "workload/update_workload.h"

namespace {

size_t EdgesFromEnv() {
  const char* raw = std::getenv("CSC_BENCH_UPDATE_EDGES");
  if (raw == nullptr) return 50;  // the paper uses [200, 500]
  long value = std::strtol(raw, nullptr, 10);
  return value > 0 ? static_cast<size_t>(value) : 50;
}

}  // namespace

int main() {
  using namespace csc;
  double scale = BenchScaleFromEnv();
  auto datasets = BenchDatasetsFromEnv();
  size_t num_edges = EdgesFromEnv();
  bench::PrintBanner(
      "Figure 11: Incremental Maintenance (minimality vs redundancy)",
      datasets, scale);
  std::printf("# edges per graph: %zu (CSC_BENCH_UPDATE_EDGES)\n", num_edges);

  TableReporter table(
      "Figure 11(a)+(b): Avg Update Time (ms) and Index Increase (entries)",
      {"Graph", "Strategy", "edges", "avg time(ms)", "avg entry delta",
       "entries added", "entries removed"});
  JsonBenchReporter json("fig11_incremental");
  for (const DatasetSpec& spec : datasets) {
    DiGraph g = MaterializeDataset(spec, scale);
    std::vector<Edge> batch = SampleExistingEdges(g, num_edges, 4242);
    for (const Edge& e : batch) g.RemoveEdge(e.from, e.to);
    VertexOrdering order = DegreeOrdering(g);

    // "Due to the time cost of minimality strategy, it is omitted for
    // graphs WAR and WSR" — mirror the paper via the paper-scale edge count.
    bool run_minimality = spec.paper_m < 20000000;
    for (int strategy_idx = 0; strategy_idx < (run_minimality ? 2 : 1);
         ++strategy_idx) {
      MaintenanceStrategy strategy = strategy_idx == 0
                                         ? MaintenanceStrategy::kRedundancy
                                         : MaintenanceStrategy::kMinimality;
      CscIndex index = CscIndex::Build(g, order);
      UpdateStats stats;
      uint64_t entries_before = index.TotalEntries();
      for (const Edge& e : batch) {
        InsertEdge(index, e.from, e.to, strategy, &stats);
      }
      double avg_ms = stats.seconds * 1000.0 / batch.size();
      double avg_delta =
          static_cast<double>(index.TotalEntries() - entries_before) /
          batch.size();
      const char* name = strategy == MaintenanceStrategy::kRedundancy
                             ? "Redundancy"
                             : "Minimality";
      table.AddRow({spec.name, name, TableReporter::FormatCount(batch.size()),
                    TableReporter::FormatDouble(avg_ms),
                    TableReporter::FormatDouble(avg_delta, 1),
                    TableReporter::FormatCount(stats.entries_added),
                    TableReporter::FormatCount(stats.entries_removed)});
      json.BeginRow()
          .Field("graph", spec.name)
          .Field("strategy", std::string(name))
          .Field("edges", static_cast<uint64_t>(batch.size()))
          .Field("avg_update_ms", avg_ms)
          .Field("avg_entry_delta", avg_delta)
          .Field("entries_added", stats.entries_added)
          .Field("entries_removed", stats.entries_removed);
      std::printf("[fig11] %s %s: %.3f ms/update\n", spec.name.c_str(), name,
                  avg_ms);
    }
  }
  table.Print();
  table.WriteCsv(bench::CsvPath("fig11_incremental"));
  json.Write("BENCH_fig11_incremental.json");
  return 0;
}
