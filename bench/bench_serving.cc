// Serving-tier comparison (ours, beyond the paper): the same built CSC
// labeling can be served from several in-memory forms with different
// size/latency/mutability trade-offs — now enumerated through the
// CycleIndex registry, so adding a backend automatically adds a row. This
// bench measures, per dataset and backend,
//
//   size    — resident index bytes (MemoryBytes) and label entries,
//   query   — mean SCCnt latency over a fixed random workload, and
//   sweep   — wall time to answer all n queries, single-threaded vs. the
//             Engine's parallel batch dispatch.
//
// Expected shape: csc and frozen match in size and latency (one packed
// arena; csc differs only in landing every write by repair); the parallel
// sweep scales with cores until memory-bound.
// A sharded section measures the same backends behind ShardedEngine at
// 1/2/4/8 shards (batched-query throughput over the routed fan-out); its
// per-backend × per-shard-count rows are also emitted as BENCH_serving.json
// so CI tracks the serving-tier trajectory.
//
// A cold-start section times load-to-first-query for each persistable
// serving form through both load paths: the copying Parse path and the
// zero-copy mmap path (Engine::LoadFromFile). Pass --mmap to also serve
// the sharded matrix from a saved bundle through one shared mapping
// (ShardedEngine::LoadFromFile) instead of the freshly built engines.
//
// A churn section measures the writer-visible ApplyUpdates latency of the
// static serving forms under repeated toggle batches, synchronous
// (rebuild on the caller's thread) vs. asynchronous
// (ShardedEngineOptions::async_updates: return after validation, rebuilds
// land off-thread) — plus the drain time that separates admission from the
// landed swaps. Each mode also runs with incremental repair
// (ShardedEngineOptions::repair): batches land as bounded label patches
// against a pinned-ordering shadow instead of full rebuilds. A single-edge
// churn subsection isolates the repair-vs-rebuild update-to-queryable
// latency (admit + drain per one-edge batch) — the headline speedup of the
// repair pipeline. Rows go into BENCH_serving.json so CI tracks both the
// admission speedup and the repair speedup.
//
// An overload section sweeps offered write load x backlog cap on the
// frozen backend (async updates): each cell floods single-edge toggle
// batches against the cap with a deadline'd probe query between batches,
// reporting the shed rate (fraction rejected with kOverloaded) and the
// p50/p99 probe latency under pressure — also into BENCH_serving.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/cycle_index.h"
#include "csc/index_io.h"
#include "serving/engine.h"
#include "serving/sharded_engine.h"
#include "util/env.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/reporter.h"
#include "workload/update_workload.h"

namespace {

using namespace csc;

// Mean per-query microseconds of `backend` over `vertices`, repeated until
// at least ~20ms of work so fast forms are not noise-dominated.
double MeanQueryMicros(const std::vector<Vertex>& vertices,
                       const CycleIndex& backend) {
  uint64_t sink = 0;
  size_t rounds = 0;
  Timer timer;
  do {
    for (Vertex v : vertices) {
      CycleCount c = backend.CountShortestCycles(v);
      sink += c.count + c.length;
    }
    ++rounds;
  } while (timer.ElapsedSeconds() < 0.02);
  // Keep the compiler from eliding the query loop.
  if (sink == 0xdeadbeef) std::printf("!");
  return timer.ElapsedMicros() / static_cast<double>(rounds * vertices.size());
}

// Nearest-rank percentile of an unsorted latency sample (p in [0, 100]).
double PercentileMillis(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  size_t rank = static_cast<size_t>((p / 100.0) * sample.size());
  if (rank >= sample.size()) rank = sample.size() - 1;
  return sample[rank];
}

// Load-to-first-query milliseconds through `load`, or -1 on failure.
double ColdStartMillis(const std::function<bool(Engine&)>& load,
                       const std::string& backend, Vertex probe) {
  EngineOptions options;
  options.backend = backend;
  options.num_threads = 1;
  Engine engine(options);
  Timer timer;
  if (!load(engine)) return -1;
  CycleCount first = engine.Query(probe);
  double ms = timer.ElapsedMillis();
  if (first.count == 0xdeadbeef) std::printf("!");
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  bool mmap_shards = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mmap") == 0) mmap_shards = true;
  }
  double scale = BenchScaleFromEnv();
  auto datasets = BenchDatasetsFromEnv();
  // The serving-tier forms; "bfs"/"hpspc" are selectable via
  // CSC_BENCH_BACKENDS but are baseline, not serving, configurations.
  auto backends = bench::BenchBackendsFromEnv(
      {"csc", "frozen"});
  bench::PrintBanner("Serving tier: index backends (size / latency / sweep)",
                     datasets, scale);
  unsigned threads = ThreadPool::DefaultThreadCount();
  std::printf("# parallel sweep threads: %u\n", threads);

  TableReporter size_table(
      "Index backend sizes",
      {"Graph", "Backend", "entries", "resident", "B/entry", "build(s)"});
  TableReporter latency_table("Mean SCCnt latency (us) per backend",
                              {"Graph", "Backend", "latency"});
  TableReporter sweep_table(
      "All-vertex sweep (ms), frozen backend",
      {"Graph", "sequential", "engine-parallel", "speedup"});
  TableReporter shard_table(
      "ShardedEngine batched-query throughput (kq/s) by shard count",
      {"Graph", "Backend", "shards", "build(s)", "kq/s"});
  TableReporter cold_table(
      "Cold start: load-to-first-query (ms), parse vs. mmap",
      {"Graph", "Backend", "parse(ms)", "mmap(ms)", "speedup"});
  TableReporter churn_table(
      "Churn: writer-visible ApplyUpdates latency (ms), sync vs. async, "
      "rebuild vs. repair",
      {"Graph", "Backend", "shards", "mode", "mean-admit", "max-admit",
       "drain(ms)", "admit-speedup"});
  TableReporter single_edge_table(
      "Single-edge churn: update-to-queryable latency (ms), rebuild vs. "
      "repair",
      {"Graph", "Backend", "rebuild-uq", "repair-uq", "speedup", "patched",
       "derived"});
  TableReporter overload_table(
      "Overload matrix: offered write load x backlog cap -> shed rate and "
      "deadline'd query latency under pressure (frozen backend)",
      {"Graph", "offered", "cap", "shed-rate", "q-p50(ms)", "q-p99(ms)",
       "peak-backlog"});
  JsonBenchReporter json("serving");
  const std::vector<uint32_t> shard_counts = {1, 2, 4, 8};
  // The persistable serving form with a load path (cold-start section);
  // "csc" loads the same packed payload as "frozen".
  const std::vector<std::string> loadable = {"frozen"};
  if (mmap_shards) {
    std::printf("# --mmap: sharded throughput measured over engines serving "
                "a saved bundle from one shared mapping\n");
  }

  for (const DatasetSpec& spec : datasets) {
    DiGraph graph = MaterializeDataset(spec, scale);

    // Fixed random query workload (reused for every backend).
    Rng rng(2024);
    std::vector<Vertex> workload;
    for (int i = 0; i < 2000; ++i) {
      workload.push_back(
          static_cast<Vertex>(rng.NextBounded(graph.num_vertices())));
    }

    for (const auto& name : backends) {
      std::unique_ptr<CycleIndex> backend = MakeBackend(name);
      backend->Build(graph);
      BackendStats stats = backend->Stats();
      double per_entry =
          stats.label_entries == 0
              ? 0.0
              : static_cast<double>(stats.memory_bytes) /
                    static_cast<double>(stats.label_entries);
      size_table.AddRow({spec.name, name,
                         TableReporter::FormatCount(stats.label_entries),
                         HumanBytes(stats.memory_bytes),
                         TableReporter::FormatDouble(per_entry, 2),
                         TableReporter::FormatDouble(stats.build_seconds)});

      latency_table.AddRow(
          {spec.name, name,
           TableReporter::FormatDouble(MeanQueryMicros(workload, *backend))});
    }

    // Sweep: sequential loop vs. the Engine's batched parallel dispatch,
    // both over the frozen serving form.
    EngineOptions options;
    options.backend = "frozen";
    options.num_threads = threads;
    Engine engine(options);
    engine.Build(graph);
    std::shared_ptr<CycleIndex> frozen = engine.snapshot();
    Timer timer;
    uint64_t sink = 0;
    for (Vertex v = 0; v < frozen->num_vertices(); ++v) {
      sink += frozen->CountShortestCycles(v).count;
    }
    double sequential_ms = timer.ElapsedMillis();
    timer.Restart();
    std::vector<CycleCount> all = engine.QueryAll();
    double parallel_ms = timer.ElapsedMillis();
    sink += all.size();
    if (sink == 0xdeadbeef) std::printf("!");
    sweep_table.AddRow(
        {spec.name, TableReporter::FormatDouble(sequential_ms, 1),
         TableReporter::FormatDouble(parallel_ms, 1),
         TableReporter::FormatDouble(
             parallel_ms > 0 ? sequential_ms / parallel_ms : 0.0, 2)});

    // Cold start: persist each loadable serving form once, then time
    // load-to-first-query through the copying Parse path and the zero-copy
    // mmap path. (The file is freshly written, so both paths read warm
    // pages — this isolates the deserialization cost the mmap path
    // removes.)
    for (const auto& name : loadable) {
      std::unique_ptr<CycleIndex> backend = MakeBackend(name);
      backend->Build(graph);
      const std::string path = "bench_serving_cold." + name + ".idx";
      if (!SaveBackendToFile(*backend, path)) continue;
      Vertex probe = workload.front();
      double parse_ms = ColdStartMillis(
          [&path](Engine& engine) {
            std::optional<std::string> payload =
                ReadVerifiedPayload(path, nullptr);
            return payload && engine.LoadFrom(*payload);
          },
          name, probe);
      double mmap_ms = ColdStartMillis(
          [&path](Engine& engine) { return engine.LoadFromFile(path); },
          name, probe);
      std::remove(path.c_str());
      cold_table.AddRow(
          {spec.name, name, TableReporter::FormatDouble(parse_ms, 2),
           TableReporter::FormatDouble(mmap_ms, 2),
           TableReporter::FormatDouble(
               mmap_ms > 0 ? parse_ms / mmap_ms : 0.0, 2)});
      json.BeginRow()
          .Field("dataset", spec.name)
          .Field("backend", name)
          .Field("cold_parse_ms", parse_ms)
          .Field("cold_mmap_ms", mmap_ms);
    }

    // Sharded serving matrix: each backend behind ShardedEngine at 1/2/4/8
    // shards, measuring routed BatchQuery throughput over the same fixed
    // workload. Every shard replicates the build (the closure is the full
    // graph), so this section costs sum(shard_counts) builds per backend —
    // trim with CSC_BENCH_BACKENDS / CSC_BENCH_SCALE when iterating.
    for (const auto& name : backends) {
      for (uint32_t shards : shard_counts) {
        ShardedEngineOptions sharded_options;
        sharded_options.backend = name;
        sharded_options.num_shards = shards;
        ShardedEngine sharded(sharded_options);
        Timer build_timer;
        if (!sharded.Build(graph)) continue;
        double build_s = build_timer.ElapsedSeconds();
        // --mmap: measure over engines serving a saved bundle through one
        // shared read-only mapping instead of the freshly built shards
        // (backends without a persistent form keep the built engines).
        ShardedEngine* serving = &sharded;
        std::unique_ptr<ShardedEngine> mapped;
        if (mmap_shards) {
          std::string payload;
          const std::string path = "bench_serving_shards.idx";
          if (sharded.SaveTo(payload) && SavePayloadToFile(payload, path)) {
            mapped = std::make_unique<ShardedEngine>(sharded_options);
            if (mapped->LoadFromFile(path)) {
              serving = mapped.get();
            } else {
              mapped.reset();
            }
          }
          std::remove(path.c_str());
        }
        uint64_t queries = 0;
        uint64_t batch_sink = 0;
        Timer query_timer;
        do {
          std::vector<CycleCount> answers = serving->BatchQuery(workload);
          batch_sink += answers.back().count;
          queries += answers.size();
        } while (query_timer.ElapsedSeconds() < 0.05);
        if (batch_sink == 0xdeadbeef) std::printf("!");
        double qps = queries / query_timer.ElapsedSeconds();
        shard_table.AddRow({spec.name, name, std::to_string(shards),
                            TableReporter::FormatDouble(build_s),
                            TableReporter::FormatDouble(qps / 1e3, 1)});
        json.BeginRow()
            .Field("dataset", spec.name)
            .Field("backend", name)
            .Field("shards", static_cast<uint64_t>(shards))
            .Field("mode", serving == &sharded ? std::string("build")
                                               : std::string("mmap"))
            .Field("build_seconds", build_s)
            .Field("batch_qps", qps)
            .Field("resident_bytes", serving->MemoryBytes());
      }
    }
    // Churn vs. writer latency: every selected backend under repeated
    // toggle batches ("csc" repairs in every mode, the knob only matters
    // for the others). Sync admission pays the full rebuild per batch on
    // the writer thread; async admission returns after validation and
    // graph mutation, with the rebuild worker coalescing the backlog —
    // the drain column is where the rebuilds actually happen.
    constexpr size_t kChurnRounds = 6;
    constexpr size_t kChurnBatchEdges = 16;
    std::vector<Edge> churn_edges = SampleNewEdges(graph, kChurnBatchEdges, 7);
    std::vector<EdgeUpdate> churn_inserts, churn_removes;
    for (const Edge& e : churn_edges) {
      churn_inserts.push_back(EdgeUpdate::Insert(e.from, e.to));
      churn_removes.push_back(EdgeUpdate::Remove(e.from, e.to));
    }
    for (const auto& name : backends) {
      if (churn_edges.empty()) break;
      for (uint32_t shards : {1u, 4u}) {
        struct ChurnMode {
          bool async_mode;
          bool repair;
          const char* label;
          const char* json_mode;
        };
        constexpr ChurnMode kChurnModes[] = {
            {false, false, "sync", "churn_sync"},
            {true, false, "async", "churn_async"},
            {false, true, "sync+rep", "churn_sync_repair"},
            {true, true, "async+rep", "churn_async_repair"}};
        double sync_mean_ms = 0;
        for (const ChurnMode& mode : kChurnModes) {
          ShardedEngineOptions churn_options;
          churn_options.backend = name;
          churn_options.num_shards = shards;
          churn_options.async_updates = mode.async_mode;
          churn_options.repair.enabled = mode.repair;
          ShardedEngine engine(churn_options);
          if (!engine.Build(graph)) continue;
          double total_admit_ms = 0, max_admit_ms = 0;
          for (size_t round = 0; round < kChurnRounds; ++round) {
            const std::vector<EdgeUpdate>& batch =
                round % 2 == 0 ? churn_inserts : churn_removes;
            Timer admit;
            engine.ApplyUpdates(batch);
            double ms = admit.ElapsedMillis();
            total_admit_ms += ms;
            max_admit_ms = std::max(max_admit_ms, ms);
          }
          Timer drain_timer;
          engine.Drain();
          double drain_ms = drain_timer.ElapsedMillis();
          double mean_admit_ms =
              total_admit_ms / static_cast<double>(kChurnRounds);
          if (!mode.async_mode && !mode.repair) sync_mean_ms = mean_admit_ms;
          double speedup = (mode.async_mode || mode.repair) &&
                                   mean_admit_ms > 0
                               ? sync_mean_ms / mean_admit_ms
                               : 1.0;
          RepairStats repair_stats = engine.RepairStatsTotal();
          churn_table.AddRow(
              {spec.name, name, std::to_string(shards), mode.label,
               TableReporter::FormatDouble(mean_admit_ms, 3),
               TableReporter::FormatDouble(max_admit_ms, 3),
               TableReporter::FormatDouble(drain_ms, 3),
               TableReporter::FormatDouble(speedup, 1)});
          json.BeginRow()
              .Field("dataset", spec.name)
              .Field("backend", name)
              .Field("shards", static_cast<uint64_t>(shards))
              .Field("mode", std::string(mode.json_mode))
              .Field("churn_rounds", static_cast<uint64_t>(kChurnRounds))
              .Field("churn_batch_edges",
                     static_cast<uint64_t>(churn_edges.size()))
              .Field("churn_mean_admit_ms", mean_admit_ms)
              .Field("churn_max_admit_ms", max_admit_ms)
              .Field("churn_drain_ms", drain_ms)
              .Field("repair_patches", repair_stats.patches)
              .Field("repair_derived", repair_stats.rebuilds);
        }
      }
    }
    // Single-edge churn: the repair pipeline's headline metric — mean
    // update-to-queryable latency (admit + drain, per one-edge batch) with
    // legacy rebuild-and-swap vs. bounded label patches. One edge is the
    // paper's update model (§V measures per-edge maintenance cost), and it
    // is where patching wins biggest: the rebuild path pays a full labeling
    // construction per toggle, the repair path re-encodes a handful of
    // runs.
    for (const auto& name : backends) {
      if (churn_edges.empty()) break;
      // "csc" always repairs, so it has no rebuild arm to compare.
      if (std::unique_ptr<CycleIndex> probe = MakeBackend(name);
          !probe || !probe->supports_label_patch() || name == "csc") {
        continue;
      }
      const Edge toggle = churn_edges.front();
      double uq_ms[2] = {0, 0};
      uint64_t patched = 0, derived = 0;
      for (int repair_mode = 0; repair_mode < 2; ++repair_mode) {
        ShardedEngineOptions single_options;
        single_options.backend = name;
        single_options.num_shards = 1;
        single_options.repair.enabled = repair_mode == 1;
        ShardedEngine engine(single_options);
        if (!engine.Build(graph)) {
          uq_ms[repair_mode] = -1;
          continue;
        }
        double total_ms = 0;
        for (size_t round = 0; round < kChurnRounds; ++round) {
          std::vector<EdgeUpdate> batch = {
              round % 2 == 0 ? EdgeUpdate::Insert(toggle.from, toggle.to)
                             : EdgeUpdate::Remove(toggle.from, toggle.to)};
          Timer round_timer;
          engine.ApplyUpdates(batch);
          engine.Drain();
          total_ms += round_timer.ElapsedMillis();
        }
        uq_ms[repair_mode] = total_ms / static_cast<double>(kChurnRounds);
        if (repair_mode == 1) {
          RepairStats repair_stats = engine.RepairStatsTotal();
          patched = repair_stats.patches;
          derived = repair_stats.rebuilds;
        }
      }
      double repair_speedup =
          uq_ms[0] > 0 && uq_ms[1] > 0 ? uq_ms[0] / uq_ms[1] : 0.0;
      single_edge_table.AddRow(
          {spec.name, name, TableReporter::FormatDouble(uq_ms[0], 3),
           TableReporter::FormatDouble(uq_ms[1], 3),
           TableReporter::FormatDouble(repair_speedup, 1),
           std::to_string(patched), std::to_string(derived)});
      json.BeginRow()
          .Field("dataset", spec.name)
          .Field("backend", name)
          .Field("mode", std::string("churn_single_edge"))
          .Field("churn_rounds", static_cast<uint64_t>(kChurnRounds))
          .Field("rebuild_update_to_queryable_ms", uq_ms[0])
          .Field("repair_update_to_queryable_ms", uq_ms[1])
          .Field("repair_speedup", repair_speedup)
          .Field("repair_patches", patched)
          .Field("repair_derived", derived);
    }
    // Overload matrix: a single-edge toggle flood at several offered loads
    // against several backlog caps, with a deadline'd probe query between
    // every offered batch. Reported per cell: the shed rate (fraction of
    // offered batches rejected with kOverloaded — the admission gate doing
    // its job) and the p50/p99 of the probe's query latency under that
    // write pressure (the snapshot-swap read path should keep both flat
    // regardless of the backlog behind it).
    {
      std::vector<Edge> overload_edges = SampleNewEdges(graph, 1, 9);
      Rng probe_rng(4242);
      std::vector<Vertex> probes;
      for (int i = 0; i < 64; ++i) {
        probes.push_back(
            static_cast<Vertex>(probe_rng.NextBounded(graph.num_vertices())));
      }
      for (size_t offered : {size_t{32}, size_t{128}}) {
        for (uint64_t cap : {uint64_t{2}, uint64_t{8}}) {
          if (overload_edges.empty()) break;
          const Edge toggle = overload_edges.front();
          EngineOptions overload_options;
          overload_options.backend = "frozen";
          overload_options.async_updates = true;
          overload_options.admission.max_pending_batches = cap;
          Engine engine(overload_options);
          if (!engine.Build(graph)) continue;
          uint64_t shed = 0;
          bool present = false;
          std::vector<double> query_ms;
          query_ms.reserve(offered);
          for (size_t i = 0; i < offered; ++i) {
            std::vector<EdgeUpdate> batch = {
                present ? EdgeUpdate::Remove(toggle.from, toggle.to)
                        : EdgeUpdate::Insert(toggle.from, toggle.to)};
            std::vector<UpdateVerdict> verdicts;
            engine.ApplyUpdates(batch, &verdicts);
            if (!verdicts.empty() &&
                verdicts[0] == UpdateVerdict::kApplied) {
              present = !present;
            } else {
              ++shed;
            }
            QueryOptions budget;
            budget.deadline =
                Deadline::After(std::chrono::milliseconds(50));
            Timer probe_timer;
            QueryResult answer =
                engine.Query(probes[i % probes.size()], budget);
            query_ms.push_back(probe_timer.ElapsedMillis());
            if (answer.count.count == 0xdeadbeef) std::printf("!");
          }
          engine.Drain();
          AdmissionStats admission = engine.admission_stats();
          double shed_rate =
              offered > 0 ? static_cast<double>(shed) /
                                static_cast<double>(offered)
                          : 0.0;
          double p50 = PercentileMillis(query_ms, 50);
          double p99 = PercentileMillis(query_ms, 99);
          overload_table.AddRow(
              {spec.name, std::to_string(offered), std::to_string(cap),
               TableReporter::FormatDouble(shed_rate, 3),
               TableReporter::FormatDouble(p50, 4),
               TableReporter::FormatDouble(p99, 4),
               std::to_string(admission.peak_pending_batches)});
          json.BeginRow()
              .Field("dataset", spec.name)
              .Field("backend", std::string("frozen"))
              .Field("mode", std::string("overload"))
              .Field("offered_batches", static_cast<uint64_t>(offered))
              .Field("backlog_cap", cap)
              .Field("shed_rate", shed_rate)
              .Field("shed_batches", admission.shed_batches)
              .Field("query_p50_ms", p50)
              .Field("query_p99_ms", p99)
              .Field("query_timeouts", admission.query_timeouts)
              .Field("peak_pending_batches", admission.peak_pending_batches);
        }
      }
    }
    std::printf("[serving] %s done\n", spec.name.c_str());
  }

  size_table.Print();
  latency_table.Print();
  sweep_table.Print();
  cold_table.Print();
  shard_table.Print();
  churn_table.Print();
  single_edge_table.Print();
  overload_table.Print();
  size_table.WriteCsv(bench::CsvPath("serving_sizes"));
  latency_table.WriteCsv(bench::CsvPath("serving_latency"));
  sweep_table.WriteCsv(bench::CsvPath("serving_sweep"));
  cold_table.WriteCsv(bench::CsvPath("serving_cold_start"));
  shard_table.WriteCsv(bench::CsvPath("serving_sharded"));
  churn_table.WriteCsv(bench::CsvPath("serving_churn"));
  single_edge_table.WriteCsv(bench::CsvPath("serving_churn_single_edge"));
  overload_table.WriteCsv(bench::CsvPath("serving_overload"));
  json.Write("BENCH_serving.json");
  return 0;
}
