#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "baseline/bfs_cycle.h"
#include "csc/girth.h"
#include "graph/digraph.h"
#include "serving/admission.h"
#include "serving/engine.h"
#include "serving/sharded_engine.h"
#include "tests/test_util.h"
#include "util/failpoint.h"

// Overload-protection semantics end to end: the admission primitives
// (Deadline / AdmissionQueue / CircuitBreaker) in isolation, write-side
// backpressure (backlog caps shed with kOverloaded or block to a
// deadline), read-side deadline propagation (typed partial results, never a
// silent short answer), breaker-metered degraded BFS serving, and the
// BeginDrain/FinishDrain lifecycle landing the admitted backlog
// bit-identically to a never-overloaded oracle. The TSan-filtered
// OverloadStressTest at the bottom proves the backlog bound under a writer
// flood with concurrent deadline'd readers.

namespace csc {
namespace {

using std::chrono::milliseconds;

class OverloadTest : public testing::Test {
 protected:
  void TearDown() override { Failpoints::Instance().ClearAll(); }

  void Arm(const std::string& site, FailpointMode mode, uint32_t countdown = 1,
           uint32_t delay_ms = 100) {
    FailpointAction action;
    action.mode = mode;
    action.countdown = countdown;
    action.delay_ms = delay_ms;
    Failpoints::Instance().Set(site, action);
  }
};

// A directed 12-cycle: every vertex lies on exactly one shortest cycle of
// length 12, so partial-sweep assertions have easy expected values.
DiGraph RingGraph(Vertex n) {
  std::vector<Edge> edges;
  for (Vertex v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n});
  return DiGraph::FromEdges(n, edges);
}

TEST_F(OverloadTest, DeadlineBasics) {
  Deadline unbounded;
  EXPECT_TRUE(unbounded.unbounded());
  EXPECT_FALSE(unbounded.expired());
  EXPECT_EQ(unbounded.remaining(), milliseconds::max());

  Deadline past = Deadline::After(milliseconds(0));
  EXPECT_FALSE(past.unbounded());
  EXPECT_TRUE(past.expired());
  EXPECT_EQ(past.remaining(), milliseconds(0));

  Deadline ahead = Deadline::After(milliseconds(60'000));
  EXPECT_FALSE(ahead.expired());
  // Unexpired deadlines round their remainder up: always >= 1ms, so the
  // value can feed CondVar::WaitFor without a zero-wait busy loop.
  EXPECT_GE(ahead.remaining(), milliseconds(1));
  EXPECT_LE(ahead.remaining(), milliseconds(60'000));

  EXPECT_TRUE(Deadline::At(Deadline::Clock::now() - milliseconds(1)).expired());

  // Budgets past the clock's range saturate to unbounded instead of
  // overflowing into an already-expired deadline.
  const milliseconds millennium = std::chrono::duration_cast<milliseconds>(
      std::chrono::hours(24 * 365) * 1000);
  for (milliseconds budget : {milliseconds::max(), millennium}) {
    Deadline forever = Deadline::After(budget);
    EXPECT_TRUE(forever.unbounded());
    EXPECT_FALSE(forever.expired());
    EXPECT_EQ(forever.remaining(), milliseconds::max());
  }
}

TEST_F(OverloadTest, AdmissionQueueWatermarks) {
  AdmissionQueue queue(AdmissionQueueOptions{/*high_watermark=*/4,
                                             /*low_watermark=*/2});
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.TryAcquire());
  EXPECT_EQ(queue.in_flight(), 4u);
  // Over the high mark: shed, and stay shedding until the low mark.
  EXPECT_FALSE(queue.TryAcquire());
  EXPECT_TRUE(queue.shedding());
  queue.Release();
  EXPECT_FALSE(queue.TryAcquire());  // 3 > low mark: hysteresis holds
  queue.Release();
  queue.Release();
  EXPECT_TRUE(queue.TryAcquire());  // drained to 1 <= 2: admitting again
  EXPECT_FALSE(queue.shedding());
  EXPECT_EQ(queue.admitted(), 5u);
  EXPECT_EQ(queue.shed(), 2u);
}

TEST_F(OverloadTest, AdmissionQueueBlocksUntilDeadline) {
  AdmissionQueue queue(AdmissionQueueOptions{/*high_watermark=*/1, 0});
  ASSERT_TRUE(queue.TryAcquire());
  // A releaser frees the slot while the acquirer blocks.
  std::thread releaser([&queue] {
    std::this_thread::sleep_for(milliseconds(50));
    queue.Release();
  });
  EXPECT_TRUE(queue.AcquireUntil(1, Deadline::After(milliseconds(5000))));
  releaser.join();
  EXPECT_EQ(queue.blocked(), 1u);
  // No releaser this time: the wait sheds at the deadline.
  EXPECT_FALSE(queue.AcquireUntil(1, Deadline::After(milliseconds(30))));
  EXPECT_EQ(queue.shed(), 1u);
  EXPECT_EQ(queue.in_flight(), 1u);
}

TEST_F(OverloadTest, CircuitBreakerTransitions) {
  CircuitBreakerOptions options;
  options.failure_threshold = 2;
  options.half_open_probes = 1;
  options.cooldown = milliseconds(50);
  CircuitBreaker breaker(options);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());

  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.transitions(), 1u);
  EXPECT_FALSE(breaker.Allow());  // cooldown still running

  std::this_thread::sleep_for(milliseconds(80));
  EXPECT_TRUE(breaker.Allow());  // the half-open probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow());  // only one probe admitted
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.transitions(), 3u);

  // A failed probe reopens instead of closing.
  breaker.RecordFailure();
  breaker.RecordFailure();
  std::this_thread::sleep_for(milliseconds(80));
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.transitions(), 6u);
  EXPECT_FALSE(breaker.Allow());
}

TEST_F(OverloadTest, BacklogCapRejectsWhenWorkerWedged) {
  EngineOptions options;
  options.backend = "frozen";
  options.async_updates = true;
  options.admission.max_pending_batches = 1;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(Figure2Graph()));
  EXPECT_EQ(engine.Health(), HealthState::kHealthy);

  // Wedge the rebuild worker so batch 1 stays unlanded.
  Arm("engine.async_rebuild", FailpointMode::kDelay, 1, /*delay_ms=*/500);
  std::vector<UpdateVerdict> verdicts;
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(1, 0)}, &verdicts), 1u);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0], UpdateVerdict::kApplied);
  EXPECT_EQ(engine.Health(), HealthState::kOverloaded);

  // Backlog at its cap: the next batch sheds before touching anything, and
  // its epoch token is the newest landed epoch (already resolved).
  uint64_t epoch = ~0ull;
  EXPECT_EQ(
      engine.ApplyUpdates({EdgeUpdate::Insert(2, 0)}, &verdicts, &epoch),
      0u);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0], UpdateVerdict::kOverloaded);
  EXPECT_TRUE(engine.WaitForEpoch(epoch));
  EXPECT_EQ(engine.admission_stats().shed_batches, 1u);

  engine.Drain();
  EXPECT_EQ(engine.Health(), HealthState::kHealthy);
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(2, 0)}, &verdicts), 1u);
  EXPECT_EQ(verdicts[0], UpdateVerdict::kApplied);
  engine.Drain();
  AdmissionStats stats = engine.admission_stats();
  EXPECT_EQ(stats.shed_batches, 1u);
  EXPECT_LE(stats.peak_pending_batches, 1u);
  EXPECT_EQ(stats.pending_ops, 0u);  // drained
}

// kOverloaded means "new writes would shed": an ops cap the backlog has
// exactly filled sheds the next one-op write, so Health must say so.
TEST_F(OverloadTest, OpsCapAtItsLimitReportsOverloaded) {
  EngineOptions options;
  options.backend = "frozen";
  options.async_updates = true;
  options.admission.max_pending_ops = 2;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(Figure2Graph()));
  EXPECT_EQ(engine.Health(), HealthState::kHealthy);

  // Wedge the worker so the first two-op batch stays pending.
  Arm("engine.async_rebuild", FailpointMode::kDelay, 1, /*delay_ms=*/500);
  EXPECT_EQ(engine.ApplyUpdates(
                {EdgeUpdate::Insert(1, 0), EdgeUpdate::Insert(2, 0)}),
            2u);
  EXPECT_EQ(engine.admission_stats().pending_ops, 2u);
  EXPECT_EQ(engine.Health(), HealthState::kOverloaded);
  std::vector<UpdateVerdict> verdicts;
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(3, 0)}, &verdicts), 0u);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0], UpdateVerdict::kOverloaded);

  engine.Drain();
  EXPECT_EQ(engine.Health(), HealthState::kHealthy);
}

TEST_F(OverloadTest, BacklogCapBlocksUntilDeadline) {
  EngineOptions options;
  options.backend = "frozen";
  options.async_updates = true;
  options.admission.max_pending_batches = 1;
  options.admission.block_on_full = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(Figure2Graph()));

  Arm("engine.async_rebuild", FailpointMode::kDelay, 1, /*delay_ms=*/1000);
  std::vector<UpdateVerdict> verdicts;
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(1, 0)}, &verdicts), 1u);

  // A short deadline blocks, expires, sheds — the blocked counter only
  // tracks admissions that eventually succeeded.
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(2, 0)},
                                Deadline::After(milliseconds(50)), &verdicts),
            0u);
  EXPECT_EQ(verdicts[0], UpdateVerdict::kOverloaded);
  EXPECT_EQ(engine.admission_stats().shed_batches, 1u);
  EXPECT_EQ(engine.admission_stats().blocked_admissions, 0u);

  // A generous deadline rides out the wedge and admits.
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(2, 0)},
                                Deadline::After(milliseconds(30'000)),
                                &verdicts),
            1u);
  EXPECT_EQ(verdicts[0], UpdateVerdict::kApplied);
  EXPECT_EQ(engine.admission_stats().blocked_admissions, 1u);
  engine.Drain();
}

TEST_F(OverloadTest, AdmissionFailpointShedsDeterministically) {
  // The "admission.delay" site's error action is a forced shed: overload is
  // reproducible with no cap configured and no real backlog at all.
  EngineOptions options;
  options.backend = "frozen";
  options.async_updates = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(Figure2Graph()));
  Arm("admission.delay", FailpointMode::kError);
  std::vector<UpdateVerdict> verdicts;
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(1, 0)}, &verdicts), 0u);
  EXPECT_EQ(verdicts[0], UpdateVerdict::kOverloaded);
  EXPECT_EQ(engine.admission_stats().shed_batches, 1u);
  // The fired site disarmed itself: the retry admits.
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(1, 0)}, &verdicts), 1u);
  EXPECT_EQ(verdicts[0], UpdateVerdict::kApplied);
  engine.Drain();
}

TEST_F(OverloadTest, PartialBatchQueryUnderDeadline) {
  EngineOptions options;
  options.num_threads = 1;  // sequential chunks: the partial is a prefix
  options.batch_grain = 4;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(RingGraph(12)));
  std::vector<Vertex> all(12);
  for (Vertex v = 0; v < 12; ++v) all[v] = v;
  const std::vector<CycleCount> full = engine.BatchQuery(all);

  // Expired before the first chunk: typed timeout, zero work claimed.
  QueryOptions expired;
  expired.deadline = Deadline::After(milliseconds(0));
  BatchQueryResult result = engine.BatchQuery(all, expired);
  EXPECT_EQ(result.status, QueryStatus::kTimeout);
  EXPECT_EQ(result.completed, 0u);

  // Deterministic mid-batch expiry: the budget probe passes once (chunk
  // [0,4) completes), then fires — exactly one chunk of work is reported.
  Arm("engine.query_deadline", FailpointMode::kError, /*countdown=*/2);
  result = engine.BatchQuery(all, QueryOptions{});
  EXPECT_EQ(result.status, QueryStatus::kTimeout);
  ASSERT_EQ(result.completed, 4u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(result.answered[i] != 0, i < 4) << i;
    if (i < 4) {
      EXPECT_EQ(result.counts[i], full[i]) << i;
    }
  }
  EXPECT_GE(engine.admission_stats().query_timeouts, 2u);

  // Unbounded budget, no failpoint: identical to the budget-free API.
  result = engine.BatchQuery(all, QueryOptions{});
  EXPECT_EQ(result.status, QueryStatus::kOk);
  EXPECT_EQ(result.completed, all.size());
  EXPECT_EQ(result.counts, full);

  QueryResult single = engine.Query(3, QueryOptions{});
  EXPECT_EQ(single.status, QueryStatus::kOk);
  EXPECT_EQ(single.count, full[3]);
  EXPECT_EQ(engine.Query(3, expired).status, QueryStatus::kTimeout);

  GirthResult girth = engine.Girth(QueryOptions{});
  EXPECT_EQ(girth.status, QueryStatus::kOk);
  EXPECT_EQ(girth.scanned, 12u);
  GirthInfo oracle = engine.Girth();
  EXPECT_EQ(girth.info.girth, oracle.girth);
  EXPECT_EQ(girth.info.num_girth_vertices, oracle.num_girth_vertices);
  EXPECT_EQ(girth.info.example_vertex, oracle.example_vertex);
}

TEST_F(OverloadTest, ShardedDeadlineSweepsMatchBudgetFree) {
  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 2;
  ShardedEngine engine(options);
  DiGraph graph = RandomGraph(40, 2.0, 11);
  ASSERT_TRUE(engine.Build(graph));

  BatchQueryResult sweep = engine.QueryAll(QueryOptions{});
  EXPECT_EQ(sweep.status, QueryStatus::kOk);
  EXPECT_EQ(sweep.completed, engine.num_vertices());
  EXPECT_EQ(sweep.counts, engine.QueryAll());

  GirthResult girth = engine.Girth(QueryOptions{});
  GirthInfo oracle = engine.Girth();
  EXPECT_EQ(girth.status, QueryStatus::kOk);
  EXPECT_EQ(girth.info.girth, oracle.girth);
  EXPECT_EQ(girth.info.num_girth_vertices, oracle.num_girth_vertices);
  EXPECT_EQ(girth.info.example_vertex, oracle.example_vertex);

  ScreenResult screen = engine.Screen(10, 5, QueryOptions{});
  std::vector<ScreeningHit> expected = engine.Screen(10, 5);
  EXPECT_EQ(screen.status, QueryStatus::kOk);
  ASSERT_EQ(screen.hits.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(screen.hits[i].vertex, expected[i].vertex) << i;
  }

  // An expired shared deadline: typed partial from the fan-out.
  QueryOptions expired;
  expired.deadline = Deadline::After(milliseconds(0));
  EXPECT_EQ(engine.QueryAll(expired).status, QueryStatus::kTimeout);
}

TEST_F(OverloadTest, DrainRejectsWritesLandsBacklog) {
  EngineOptions options;
  options.backend = "frozen";
  options.async_updates = true;
  Engine engine(options);
  DiGraph graph = Figure2Graph();
  ASSERT_TRUE(engine.Build(graph));

  // Batch 1 is admitted, then the drain begins while it is still unlanded.
  Arm("engine.async_rebuild", FailpointMode::kDelay, 1, /*delay_ms=*/300);
  const std::vector<EdgeUpdate> admitted = {EdgeUpdate::Insert(1, 0),
                                            EdgeUpdate::Remove(0, 2)};
  std::vector<UpdateVerdict> verdicts;
  EXPECT_EQ(engine.ApplyUpdates(admitted, &verdicts), 2u);

  EXPECT_TRUE(engine.BeginDrain());
  EXPECT_FALSE(engine.BeginDrain());  // already draining
  EXPECT_EQ(engine.Health(), HealthState::kDraining);
  EXPECT_TRUE(engine.draining());

  // New writes shed at the door; the admitted backlog still lands.
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(2, 0)}, &verdicts), 0u);
  EXPECT_EQ(verdicts[0], UpdateVerdict::kOverloaded);
  EXPECT_EQ(engine.Drain(milliseconds(30'000)), WaitStatus::kLanded);

  // Bit-identical to the never-overloaded oracle over the admitted batch.
  EngineOptions sync_options;
  sync_options.backend = "frozen";
  Engine oracle(sync_options);
  ASSERT_TRUE(oracle.Build(graph));
  EXPECT_EQ(oracle.ApplyUpdates(admitted), 2u);
  std::string drained_bytes, oracle_bytes;
  ASSERT_TRUE(engine.SaveTo(drained_bytes));
  ASSERT_TRUE(oracle.SaveTo(oracle_bytes));
  EXPECT_EQ(drained_bytes, oracle_bytes);

  engine.FinishDrain();
  EXPECT_EQ(engine.Health(), HealthState::kHealthy);
  EXPECT_EQ(engine.admission_stats().drains, 1u);
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(2, 0)}, &verdicts), 1u);
  EXPECT_EQ(verdicts[0], UpdateVerdict::kApplied);
  engine.Drain();
}

TEST_F(OverloadTest, HealthLifecycle) {
  Engine engine(EngineOptions{});
  EXPECT_EQ(engine.Health(), HealthState::kStarting);
  ASSERT_TRUE(engine.Build(Figure2Graph()));
  EXPECT_EQ(engine.Health(), HealthState::kHealthy);
}

TEST_F(OverloadTest, ShardedDrainLifecycle) {
  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 2;
  options.async_updates = true;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.Build(Figure2Graph()));
  EXPECT_EQ(engine.Health(), HealthState::kHealthy);

  EXPECT_TRUE(engine.BeginDrain());
  EXPECT_EQ(engine.Health(), HealthState::kDraining);
  // Draining shards shed the whole batch (all-or-nothing admission).
  std::vector<uint64_t> epochs;
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(1, 0)}, &epochs), 0u);
  EXPECT_EQ(engine.Drain(milliseconds(30'000)), WaitStatus::kLanded);
  engine.FinishDrain();
  EXPECT_EQ(engine.Health(), HealthState::kHealthy);
  EXPECT_GE(engine.AdmissionStatsTotal().shed_batches, 1u);
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(1, 0)}, &epochs), 1u);
  engine.Drain();
}

TEST_F(OverloadTest, BreakerMetersDegradedBfsFallback) {
  DiGraph graph = RandomGraph(40, 2.0, 3);
  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 2;
  ShardedEngine builder(options);
  ASSERT_TRUE(builder.Build(graph));
  std::string bundle;
  ASSERT_TRUE(builder.SaveTo(bundle));

  ShardedEngineOptions tolerant = options;
  tolerant.tolerate_faults = true;
  tolerant.degraded.breaker.failure_threshold = 3;
  tolerant.degraded.breaker.cooldown = milliseconds(100);
  tolerant.degraded.max_concurrent_fallbacks = 4;
  Arm("sharded.load_shard", FailpointMode::kError, /*countdown=*/1);
  ShardedEngine degraded(tolerant);
  std::string error;
  ASSERT_TRUE(degraded.LoadFrom(bundle, &error)) << error;
  Failpoints::Instance().ClearAll();
  ASSERT_EQ(degraded.shard_state(0), ShardState::kQuarantined);
  degraded.SetFallbackGraph(graph);
  ASSERT_EQ(degraded.shard_state(0), ShardState::kDegraded);
  EXPECT_EQ(degraded.Health(), HealthState::kDegraded);

  Vertex v0 = 0;
  ASSERT_EQ(degraded.ShardOf(v0), 0u);
  QueryOptions expired;
  expired.deadline = Deadline::After(milliseconds(0));

  // Three deadline misses trip the breaker open.
  for (int i = 0; i < 3; ++i) {
    ShardedQueryResult result = degraded.QueryWithStatus(v0, expired);
    EXPECT_EQ(result.status, QueryStatus::kTimeout) << i;
    EXPECT_EQ(result.served_by, ShardState::kDegraded) << i;
  }
  DegradedStats stats = degraded.degraded_stats();
  EXPECT_EQ(stats.breaker_state, CircuitBreaker::State::kOpen);
  EXPECT_EQ(stats.fallback_timeouts, 3u);

  // Open breaker: even a generous deadline is shed, cheaply.
  QueryOptions generous;
  generous.deadline = Deadline::After(milliseconds(30'000));
  ShardedQueryResult shed = degraded.QueryWithStatus(v0, generous);
  EXPECT_EQ(shed.status, QueryStatus::kShed);
  EXPECT_EQ(shed.count.count, 0u);
  EXPECT_GE(degraded.degraded_stats().fallback_shed, 1u);

  // An unbounded deadline leaves the breaker no budget to protect: with the
  // breaker still open, QueryOptions{} gets the exact BFS answers with kOk
  // on every entry point, identical to the budget-free forms, and neither
  // consults nor moves the breaker.
  const QueryOptions unbounded;
  const uint64_t transitions = degraded.degraded_stats().breaker_transitions;
  const Vertex n = degraded.num_vertices();
  std::vector<CycleCount> truth(n);
  for (Vertex v = 0; v < n; ++v) truth[v] = BfsCountCycles(graph, v);

  ShardedQueryResult exact = degraded.QueryWithStatus(v0, unbounded);
  EXPECT_EQ(exact.status, QueryStatus::kOk);
  EXPECT_EQ(exact.served_by, ShardState::kDegraded);
  EXPECT_EQ(exact.count, truth[v0]);
  ShardedQueryResult budget_free = degraded.QueryWithStatus(v0);
  EXPECT_EQ(budget_free.status, QueryStatus::kOk);
  EXPECT_EQ(budget_free.served_by, ShardState::kDegraded);
  EXPECT_EQ(budget_free.count, truth[v0]);
  EXPECT_EQ(degraded.Query(v0), truth[v0]);

  std::vector<Vertex> batch = {v0, n - 1, n, v0, 1};  // n is out of range
  BatchQueryResult batched = degraded.BatchQuery(batch, unbounded);
  EXPECT_EQ(batched.status, QueryStatus::kOk);
  EXPECT_EQ(batched.completed, batch.size());
  EXPECT_EQ(batched.counts, (std::vector<CycleCount>{
                                truth[v0], truth[n - 1], CycleCount{},
                                truth[v0], truth[1]}));
  EXPECT_EQ(degraded.BatchQuery(batch), batched.counts);

  BatchQueryResult all = degraded.QueryAll(unbounded);
  EXPECT_EQ(all.status, QueryStatus::kOk);
  EXPECT_EQ(all.completed, size_t{n});
  EXPECT_EQ(all.counts, truth);
  EXPECT_EQ(degraded.QueryAll(), truth);

  const GirthInfo girth_truth =
      ComputeGirth(n, [&truth](Vertex v) { return truth[v]; });
  GirthResult girth = degraded.Girth(unbounded);
  EXPECT_EQ(girth.status, QueryStatus::kOk);
  EXPECT_EQ(girth.scanned, n);
  EXPECT_EQ(girth.info.girth, girth_truth.girth);
  EXPECT_EQ(girth.info.num_girth_vertices, girth_truth.num_girth_vertices);
  EXPECT_EQ(girth.info.example_vertex, girth_truth.example_vertex);
  GirthInfo budget_free_girth = degraded.Girth();
  EXPECT_EQ(budget_free_girth.girth, girth_truth.girth);
  EXPECT_EQ(budget_free_girth.num_girth_vertices,
            girth_truth.num_girth_vertices);
  EXPECT_EQ(budget_free_girth.example_vertex, girth_truth.example_vertex);

  ScreenResult screen = degraded.Screen(kInfDist, 5, unbounded);
  EXPECT_EQ(screen.status, QueryStatus::kOk);
  EXPECT_EQ(screen.scanned, n);
  EXPECT_EQ(screen.hits, builder.Screen(kInfDist, 5));  // all healthy
  EXPECT_EQ(degraded.Screen(kInfDist, 5), screen.hits);

  stats = degraded.degraded_stats();
  EXPECT_EQ(stats.breaker_state, CircuitBreaker::State::kOpen);
  EXPECT_EQ(stats.breaker_transitions, transitions);

  // After the cooldown the half-open probe succeeds and closes the breaker;
  // the answer is the exact BFS count.
  std::this_thread::sleep_for(milliseconds(150));
  ShardedQueryResult answered = degraded.QueryWithStatus(v0, generous);
  EXPECT_EQ(answered.status, QueryStatus::kOk);
  EXPECT_EQ(answered.count, BfsCountCycles(graph, v0));
  stats = degraded.degraded_stats();
  EXPECT_EQ(stats.breaker_state, CircuitBreaker::State::kClosed);
  EXPECT_GE(stats.breaker_transitions, 3u);
  EXPECT_GE(stats.fallback_queries, 5u);

  // The healthy shard is untouched by the breaker.
  Vertex v1 = kNoVertex;
  for (Vertex v = 0; v < degraded.num_vertices(); ++v) {
    if (degraded.ShardOf(v) == 1) {
      v1 = v;
      break;
    }
  }
  ASSERT_NE(v1, kNoVertex);
  ShardedQueryResult healthy = degraded.QueryWithStatus(v1, generous);
  EXPECT_EQ(healthy.status, QueryStatus::kOk);
  EXPECT_EQ(healthy.served_by, ShardState::kHealthy);
}

// TSan-filtered stress scenario (see .github/workflows/ci.yml): a writer
// floods single-edge toggle batches against a capped backlog while
// deadline'd readers sweep concurrently. Proves (a) the backlog never
// exceeds its cap, (b) every reader gets a full answer or a typed
// kTimeout — never a hang, crash, or silent partial — and (c) the drained
// state is byte-identical to a never-overloaded oracle over exactly the
// admitted batches.
class OverloadStressTest : public testing::Test {
 protected:
  void TearDown() override { Failpoints::Instance().ClearAll(); }

  void Arm(const std::string& site, FailpointMode mode, uint32_t countdown = 1,
           uint32_t delay_ms = 100) {
    FailpointAction action;
    action.mode = mode;
    action.countdown = countdown;
    action.delay_ms = delay_ms;
    Failpoints::Instance().Set(site, action);
  }
};

TEST_F(OverloadStressTest, WriterFloodKeepsBacklogBounded) {
  DiGraph graph = RandomGraph(60, 2.0, 7);
  EngineOptions options;
  options.backend = "frozen";
  options.async_updates = true;
  options.admission.max_pending_batches = 4;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::vector<Vertex> all(graph.num_vertices());
      for (Vertex v = 0; v < graph.num_vertices(); ++v) all[v] = v;
      while (!stop.load(std::memory_order_relaxed)) {
        QueryOptions budget;
        budget.deadline = Deadline::After(milliseconds(5));
        BatchQueryResult result = engine.BatchQuery(all, budget);
        if (result.status == QueryStatus::kOk) {
          if (result.completed != all.size()) ++reader_violations;
        } else if (result.status == QueryStatus::kTimeout) {
          if (result.completed > all.size()) ++reader_violations;
        } else {
          ++reader_violations;  // kShed never comes from a healthy engine
        }
      }
    });
  }

  // Writer flood: 200 single-edge toggles against the capped backlog. Every
  // admitted toggle is mirrored into the shadow graph; shed batches leave
  // no trace (that is the property under test). The first rebuild is wedged
  // so the flood genuinely saturates the cap — without it, rebuilds of a
  // graph this small land faster than the flood offers work.
  Arm("engine.async_rebuild", FailpointMode::kDelay, 1, /*delay_ms=*/50);
  DiGraph shadow = graph;
  std::vector<std::vector<EdgeUpdate>> admitted;
  uint64_t shed = 0;
  uint64_t lcg = 42;
  for (int i = 0; i < 200; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    Vertex a = static_cast<Vertex>((lcg >> 33) % graph.num_vertices());
    Vertex b = static_cast<Vertex>((lcg >> 13) % graph.num_vertices());
    if (a == b) b = (b + 1) % graph.num_vertices();
    const bool present = shadow.HasEdge(a, b);
    std::vector<EdgeUpdate> batch = {present ? EdgeUpdate::Remove(a, b)
                                             : EdgeUpdate::Insert(a, b)};
    std::vector<UpdateVerdict> verdicts;
    engine.ApplyUpdates(batch, &verdicts);
    ASSERT_EQ(verdicts.size(), 1u);
    if (verdicts[0] == UpdateVerdict::kApplied) {
      if (present) {
        shadow.RemoveEdge(a, b);
      } else {
        shadow.AddEdge(a, b);
      }
      admitted.push_back(batch);
    } else {
      ASSERT_EQ(verdicts[0], UpdateVerdict::kOverloaded);
      ++shed;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  engine.Drain();

  EXPECT_EQ(reader_violations.load(), 0u);
  AdmissionStats stats = engine.admission_stats();
  EXPECT_LE(stats.peak_pending_batches,
            options.admission.max_pending_batches);
  EXPECT_EQ(stats.shed_batches, shed);
  EXPECT_GT(shed, 0u);  // the wedge guarantees real overload was exercised
  EXPECT_EQ(admitted.size() + shed, 200u);
  EXPECT_EQ(stats.pending_batches, 0u);

  // Never-overloaded oracle: a synchronous engine applies exactly the
  // admitted batches in admission order. Drained state must match byte for
  // byte.
  EngineOptions sync_options;
  sync_options.backend = "frozen";
  Engine oracle(sync_options);
  ASSERT_TRUE(oracle.Build(graph));
  for (const auto& batch : admitted) {
    ASSERT_EQ(oracle.ApplyUpdates(batch), 1u);
  }
  std::string flooded_bytes, oracle_bytes;
  ASSERT_TRUE(engine.SaveTo(flooded_bytes));
  ASSERT_TRUE(oracle.SaveTo(oracle_bytes));
  EXPECT_EQ(flooded_bytes, oracle_bytes);
}

}  // namespace
}  // namespace csc
