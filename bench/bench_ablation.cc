// Ablation study (ours, per DESIGN.md §5): what each CSC construction
// optimization buys. Compares the standard build against builds with
// couple-vertex skipping disabled and with distance pruning disabled.
// Every variant reports its full labeling: the couple-skip variants' stats
// count the couple label sets the index derives, so "entries" and "size"
// count all four label sets per couple pair in every row. Without couple
// skipping there is no CSC index: that row is HP-SPC's plain construction
// over G_b (BuildPlainHubLabeling over BipartiteConversion).
#include <cstdio>

#include "bench/bench_common.h"
#include "csc/csc_index.h"
#include "graph/bipartite.h"
#include "graph/ordering.h"
#include "labeling/pruned_bfs.h"
#include "util/timer.h"
#include "workload/reporter.h"

int main() {
  using namespace csc;
  double scale = BenchScaleFromEnv();
  // Ablations rebuild the index three times; keep to the two smallest
  // graphs unless the user filtered explicitly.
  std::vector<DatasetSpec> datasets = BenchDatasetsFromEnv();
  if (std::getenv("CSC_BENCH_DATASETS") == nullptr) {
    datasets = {FindDataset("G04").value(), FindDataset("G30").value()};
  }
  bench::PrintBanner("Ablation: CSC construction optimizations", datasets,
                     scale);

  TableReporter table("Ablation: build time / label entries / BFS dequeues",
                      {"Graph", "Variant", "time(s)", "entries",
                       "size(MB)", "vertices dequeued",
                       "pruned by distance"});
  JsonBenchReporter json("ablation");
  for (const DatasetSpec& spec : datasets) {
    DiGraph g = MaterializeDataset(spec, scale);
    VertexOrdering order = DegreeOrdering(g);
    struct Variant {
      const char* name;
      LabelBuildStats (*build)(const DiGraph&, const VertexOrdering&);
    };
    const Variant variants[] = {
        {"standard",
         [](const DiGraph& graph, const VertexOrdering& o) {
           return BuildCscAblation(graph, o, {}).build_stats();
         }},
        {"no couple skipping",
         [](const DiGraph& graph, const VertexOrdering& o) {
           DiGraph bipartite = BipartiteConversion(graph);
           Timer timer;
           HubLabeling labeling;
           labeling.Resize(bipartite.num_vertices());
           LabelBuildStats stats;
           BuildPlainHubLabeling(bipartite, BipartiteOrdering(o), labeling,
                                 stats);
           stats.seconds = timer.ElapsedSeconds();
           return stats;
         }},
        {"no distance pruning",
         [](const DiGraph& graph, const VertexOrdering& o) {
           return BuildCscAblation(graph, o, {.disable_distance_pruning = true})
               .build_stats();
         }},
    };
    for (const Variant& variant : variants) {
      const LabelBuildStats s = variant.build(g, order);
      const uint64_t label_bytes = s.entries * sizeof(LabelEntry);
      table.AddRow({spec.name, variant.name,
                    TableReporter::FormatDouble(s.seconds),
                    TableReporter::FormatCount(s.entries),
                    TableReporter::FormatDouble(label_bytes / 1048576.0),
                    TableReporter::FormatCount(s.vertices_dequeued),
                    TableReporter::FormatCount(s.pruned_by_distance)});
      json.BeginRow()
          .Field("dataset", spec.name)
          .Field("variant", std::string(variant.name))
          .Field("build_seconds", s.seconds)
          .Field("label_entries", s.entries)
          .Field("label_bytes", label_bytes)
          .Field("vertices_dequeued", s.vertices_dequeued)
          .Field("pruned_by_distance", s.pruned_by_distance);
      std::printf("[ablation] %s %s: %.3fs\n", spec.name.c_str(),
                  variant.name, s.seconds);
    }
  }
  table.Print();
  table.WriteCsv(bench::CsvPath("ablation"));
  json.Write("BENCH_ablation.json");
  return 0;
}
