// Figure 9 reproduction: (a) index construction time and (b) index size for
// HP-SPC (baseline) vs CSC (proposed) on every dataset, plus (c) the
// parallel-construction scaling matrix: build time per thread count for the
// rank-batched parallel builder, against the sequential builder as the
// num_threads=0 baseline.
//
// Expected shape (paper §VI.B.1-2): construction times within ~1.4x of each
// other in both directions, and index sizes within a few percent (CSC's
// size is its §IV.E-reduced form, which is what a deployment stores). The
// scaling matrix targets >= 3x at 8 threads on the largest graph on an
// >= 8-core machine; every thread count's labeling is verified identical to
// the sequential build ("identical" column).
//
// Emits BENCH_fig9_index.json: "size" rows mirror table (a)+(b), "scaling"
// rows mirror table (c) with per-thread-count build times and speedups.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "graph/ordering.h"
#include "hpspc/hpspc_index.h"
#include "workload/reporter.h"

namespace {

// CSC_BENCH_THREADS: comma-separated construction worker counts (0 = the
// sequential builder). The 0 baseline is always measured even when absent
// from the list, so speedups are well-defined.
std::vector<unsigned> ThreadsFromEnv() {
  std::vector<unsigned> threads;
  const char* env = std::getenv("CSC_BENCH_THREADS");
  if (env != nullptr && *env != '\0') {
    unsigned value = 0;
    bool have_digit = false;
    for (const char* p = env;; ++p) {
      if (*p >= '0' && *p <= '9') {
        value = value * 10 + static_cast<unsigned>(*p - '0');
        have_digit = true;
      } else {
        // Any non-digit separates values, so "0 8" is {0, 8} — not {8}.
        if (have_digit) threads.push_back(value);
        value = 0;
        have_digit = false;
        if (*p == '\0') break;
      }
    }
  }
  if (threads.empty()) threads = {0, 1, 2, 4, 8};
  return threads;
}

}  // namespace

int main() {
  using namespace csc;
  double scale = BenchScaleFromEnv();
  auto datasets = BenchDatasetsFromEnv();
  std::vector<unsigned> thread_counts = ThreadsFromEnv();
  bench::PrintBanner("Figure 9: Index Time (sec), Index Size (MB), and "
                     "Parallel Construction Scaling",
                     datasets, scale);
  std::printf("# threads: ");
  for (unsigned t : thread_counts) std::printf("%u ", t);
  std::printf("(CSC_BENCH_THREADS; 0 = sequential builder)\n");

  JsonBenchReporter json("fig9_index");

  TableReporter table(
      "Figure 9(a)+(b): Index Construction Time and Index Size",
      {"Graph", "HP-SPC time(s)", "CSC time(s)", "time ratio",
       "HP-SPC size(MB)", "CSC size(MB)", "size ratio", "CSC entries"});
  TableReporter scaling(
      "Figure 9(c): Parallel Construction (build seconds vs threads)",
      {"Graph", "threads", "CSC build(s)", "speedup", "HP-SPC build(s)",
       "speedup", "identical"});

  for (const DatasetSpec& spec : datasets) {
    DiGraph g = MaterializeDataset(spec, scale);
    VertexOrdering order = DegreeOrdering(g);

    // Sequential baseline: feeds table (a)+(b) and anchors the speedups and
    // the bit-identity checks of the scaling matrix.
    HpSpcIndex hpspc_seq = HpSpcIndex::Build(g, order);
    CscIndex csc_seq = CscIndex::Build(g, order);
    CompactIndex compact = CompactIndex::FromIndex(csc_seq);

    double hpspc_time = hpspc_seq.build_stats().seconds;
    double csc_time = csc_seq.build_stats().seconds;
    double hpspc_mb = hpspc_seq.labeling().SizeBytes() / 1048576.0;
    double csc_mb = compact.SizeBytes() / 1048576.0;
    table.AddRow({spec.name, TableReporter::FormatDouble(hpspc_time),
                  TableReporter::FormatDouble(csc_time),
                  TableReporter::FormatDouble(
                      hpspc_time > 0 ? csc_time / hpspc_time : 0, 2),
                  TableReporter::FormatDouble(hpspc_mb),
                  TableReporter::FormatDouble(csc_mb),
                  TableReporter::FormatDouble(
                      hpspc_mb > 0 ? csc_mb / hpspc_mb : 0, 2),
                  TableReporter::FormatCount(compact.TotalEntries())});
    json.BeginRow()
        .Field("section", std::string("size"))
        .Field("graph", spec.name)
        .Field("hpspc_build_s", hpspc_time)
        .Field("csc_build_s", csc_time)
        .Field("hpspc_size_mb", hpspc_mb)
        .Field("csc_size_mb", csc_mb)
        .Field("csc_entries", compact.TotalEntries());
    std::printf("[fig9] %s done: HP-SPC %.3fs / CSC %.3fs (sequential)\n",
                spec.name.c_str(), hpspc_time, csc_time);

    for (unsigned t : thread_counts) {
      double csc_t, hpspc_t;
      bool identical;
      if (t == 0) {
        csc_t = csc_time;
        hpspc_t = hpspc_time;
        identical = true;  // the baseline is its own reference
      } else {
        CscIndex::Options options;
        options.build_threads = t;
        CscIndex csc_par = CscIndex::Build(g, order, options);
        HpSpcIndex hpspc_par = HpSpcIndex::Build(g, order, t);
        csc_t = csc_par.build_stats().seconds;
        hpspc_t = hpspc_par.build_stats().seconds;
        identical = csc_par.served_labels() == csc_seq.served_labels() &&
                    hpspc_par.labeling() == hpspc_seq.labeling();
        if (!identical) {
          std::fprintf(stderr,
                       "[fig9] WARNING: %s threads=%u labeling differs from "
                       "the sequential build\n",
                       spec.name.c_str(), t);
        }
      }
      double csc_speedup = csc_t > 0 ? csc_time / csc_t : 0;
      double hpspc_speedup = hpspc_t > 0 ? hpspc_time / hpspc_t : 0;
      scaling.AddRow({spec.name, TableReporter::FormatCount(t),
                      TableReporter::FormatDouble(csc_t),
                      TableReporter::FormatDouble(csc_speedup, 2),
                      TableReporter::FormatDouble(hpspc_t),
                      TableReporter::FormatDouble(hpspc_speedup, 2),
                      identical ? "yes" : "NO"});
      json.BeginRow()
          .Field("section", std::string("scaling"))
          .Field("graph", spec.name)
          .Field("threads", static_cast<uint64_t>(t))
          .Field("csc_build_s", csc_t)
          .Field("csc_speedup", csc_speedup)
          .Field("hpspc_build_s", hpspc_t)
          .Field("hpspc_speedup", hpspc_speedup)
          .Field("identical", static_cast<uint64_t>(identical ? 1 : 0));
      std::printf("[fig9] %s threads=%u: CSC %.3fs (%.2fx) / HP-SPC %.3fs "
                  "(%.2fx)\n",
                  spec.name.c_str(), t, csc_t, csc_speedup, hpspc_t,
                  hpspc_speedup);
    }
  }
  table.Print();
  scaling.Print();
  table.WriteCsv(bench::CsvPath("fig9_index"));
  scaling.WriteCsv(bench::CsvPath("fig9_index_scaling"));
  json.Write("BENCH_fig9_index.json");
  return 0;
}
