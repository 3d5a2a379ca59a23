// Index-server placement in a P2P file-sharing network (the paper's
// Application 2): hosts with many short file-sharing cycles are both
// failure-tolerant and quick to locate files through, so the host with the
// most shortest cycles is the preferred index server. The demo compares the
// cycle-based choice against a plain highest-degree heuristic by a simple
// reachability-latency score.
//
// Served through the sharded serving tier: hosts are partitioned across
// per-shard engines, the all-host scan is a QueryAll fanned across the shards,
// per-host queries route to their owner, and host churn flows through
// ApplyUpdates with async_updates on — the writer returns after validation
// (repairs and rebuilds land off-thread), and Drain() is the read-your-writes
// barrier before the post-churn query.
//
// Overload protection: --max-pending caps the per-shard async backlog
// (excess churn batches shed with kOverloaded instead of growing the
// queue), --deadline-ms budgets every monitoring query and the post-churn
// drain (a blown budget is a typed timeout, never a hang), and the exit
// report prints the shed/timeout/drain counters.
//
//   $ ./p2p_index_server [num_hosts] [backend] [shards]
//                        [--max-pending=N] [--deadline-ms=MS]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dynamic/edge_update.h"
#include "graph/generators.h"
#include "serving/sharded_engine.h"

using namespace csc;

namespace {

// Average hop count from `host` to every reachable host (forward BFS), a
// proxy for how quickly queries routed through the index server resolve.
double AvgHops(const DiGraph& g, Vertex host) {
  std::vector<Dist> dist(g.num_vertices(), kInfDist);
  std::vector<Vertex> queue = {host};
  dist[host] = 0;
  size_t head = 0;
  uint64_t total = 0, reached = 0;
  while (head < queue.size()) {
    Vertex w = queue[head++];
    total += dist[w];
    ++reached;
    for (Vertex u : g.OutNeighbors(w)) {
      if (dist[u] == kInfDist) {
        dist[u] = dist[w] + 1;
        queue.push_back(u);
      }
    }
  }
  return reached > 1 ? static_cast<double>(total) / (reached - 1) : 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t max_pending = 0;   // 0 = uncapped backlog
  int64_t deadline_ms = 0;    // 0 = unbounded query budget
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--max-pending=", 0) == 0) {
      max_pending = std::strtoull(arg.c_str() + 14, nullptr, 10);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      deadline_ms = std::strtoll(arg.c_str() + 14, nullptr, 10);
    } else {
      positional.push_back(arg);
    }
  }
  // Every read below runs under this budget; unbounded when no flag given.
  auto budget = [&] {
    QueryOptions query_options;
    if (deadline_ms > 0) {
      query_options.deadline =
          Deadline::After(std::chrono::milliseconds(deadline_ms));
    }
    return query_options;
  };

  Vertex num_hosts = positional.size() > 0
                         ? static_cast<Vertex>(std::atoi(positional[0].c_str()))
                         : 3000;
  // Gnutella-like overlay: small-world interactions with shortcuts.
  DiGraph network = GenerateSmallWorld(num_hosts, 3, 0.25, 6);
  std::printf("p2p overlay: %u hosts, %llu interactions\n",
              network.num_vertices(),
              static_cast<unsigned long long>(network.num_edges()));

  ShardedEngineOptions options;
  if (positional.size() > 1) options.backend = positional[1];
  options.num_shards =
      positional.size() > 2 ? static_cast<uint32_t>(std::atoi(positional[2].c_str()))
                            : 2;
  // Churn must never stall the monitoring loop: admit updates and let the
  // per-shard landers swap in new snapshots asynchronously — bounded by
  // --max-pending, past which churn batches shed instead of queueing without
  // limit.
  options.async_updates = true;
  options.admission.max_pending_batches = max_pending;
  ShardedEngine engine(options);
  if (!engine.valid()) {
    std::fprintf(stderr, "unknown backend '%s'\n", options.backend.c_str());
    return 1;
  }
  engine.Build(network);
  std::vector<ShardInfo> shards = engine.Stats();
  std::printf("engine: backend '%s' across %u shards\n",
              engine.backend_name().c_str(), engine.num_shards());
  for (const ShardInfo& info : shards) {
    std::printf(
        "  shard %u: %u owned hosts, %llu internal + %llu cross-shard "
        "interactions, built in %.1f ms\n",
        info.shard, info.owned_vertices,
        static_cast<unsigned long long>(info.internal_edges),
        static_cast<unsigned long long>(info.cross_shard_edges),
        info.backend.build_seconds * 1e3);
  }
  std::printf("\n");

  // Candidate 1: the host with the most shortest file-sharing cycles — the
  // paper's index-server criterion (failure tolerance needs many disjoint
  // feedback routes; ties broken toward shorter routes). One batched sweep
  // under the query budget: a blown deadline yields the best host over the
  // answered prefix, reported as partial instead of stalling monitoring.
  BatchQueryResult sweep = engine.QueryAll(budget());
  if (sweep.status == QueryStatus::kTimeout) {
    std::printf("sweep deadline blew: %zu/%u hosts answered (partial pick)\n",
                sweep.completed, network.num_vertices());
  }
  Vertex best_cycle_host = 0;
  CycleCount best_cc;
  for (Vertex v = 0; v < network.num_vertices(); ++v) {
    if (!sweep.answered[v]) continue;
    const CycleCount& cc = sweep.counts[v];
    if (cc.count == 0) continue;
    bool better = cc.count > best_cc.count ||
                  (cc.count == best_cc.count && cc.length < best_cc.length);
    if (better) {
      best_cc = cc;
      best_cycle_host = v;
    }
  }

  // Candidate 2: the highest-degree host (the naive heuristic).
  Vertex best_degree_host = 0;
  for (Vertex v = 1; v < network.num_vertices(); ++v) {
    if (network.Degree(v) > network.Degree(best_degree_host)) {
      best_degree_host = v;
    }
  }

  std::printf("cycle-based choice : host %u (SCCnt=%llu, len=%u, degree=%zu)\n",
              best_cycle_host,
              static_cast<unsigned long long>(best_cc.count), best_cc.length,
              network.Degree(best_cycle_host));
  std::printf("degree-based choice: host %u (degree=%zu)\n\n",
              best_degree_host, network.Degree(best_degree_host));

  double cycle_latency = AvgHops(network, best_cycle_host);
  double degree_latency = AvgHops(network, best_degree_host);
  std::printf("avg hops to reach the network:\n");
  std::printf("  via cycle-based index server : %.2f\n", cycle_latency);
  std::printf("  via degree-based index server: %.2f\n", degree_latency);

  // Hosts churn constantly in P2P networks; drop the chosen server's
  // heaviest link and confirm monitoring keeps working (every backend
  // lands the change as a warm snapshot swap).
  if (!network.OutNeighbors(best_cycle_host).empty()) {
    Vertex peer = network.OutNeighbors(best_cycle_host).front();
    size_t applied =
        engine.ApplyUpdates({EdgeUpdate::Remove(best_cycle_host, peer)});
    // The monitoring query needs read-your-writes: drain the async rebuild
    // pipeline so the answer reflects the churned link. Under a budget the
    // drain itself is deadline'd — a wedged rebuild surfaces as a typed
    // timeout here instead of hanging the monitor.
    WaitStatus drained =
        deadline_ms > 0
            ? engine.Drain(std::chrono::milliseconds(deadline_ms))
            : (engine.Drain(), WaitStatus::kLanded);
    if (drained == WaitStatus::kTimeout) {
      std::printf("\ndrain deadline blew after churn; answer may be stale\n");
    }
    ShardedQueryResult after =
        engine.QueryWithStatus(best_cycle_host, budget());
    if (after.status != QueryStatus::kOk) {
      std::printf(
          "\npost-churn query %s for host %u (typed, not a silent stale "
          "answer)\n",
          after.status == QueryStatus::kTimeout ? "timed out" : "was shed",
          best_cycle_host);
    } else {
      std::printf(
          "\nafter link %u->%u churned away (%zu update applied, pipeline "
          "drained): SCCnt(%u) = %llu (len %u)\n",
          best_cycle_host, peer, applied, best_cycle_host,
          static_cast<unsigned long long>(after.count.count),
          after.count.length);
    }
  }

  // Exit report: what overload protection actually did this run.
  AdmissionStats admission = engine.AdmissionStatsTotal();
  std::printf(
      "\noverload counters: shed_batches=%llu blocked_admissions=%llu "
      "query_timeouts=%llu drains=%llu peak_pending_batches=%llu\n",
      static_cast<unsigned long long>(admission.shed_batches),
      static_cast<unsigned long long>(admission.blocked_admissions),
      static_cast<unsigned long long>(admission.query_timeouts),
      static_cast<unsigned long long>(admission.drains),
      static_cast<unsigned long long>(admission.peak_pending_batches));
  return 0;
}
