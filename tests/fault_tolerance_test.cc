#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "csc/index_io.h"
#include "graph/digraph.h"
#include "serving/engine.h"
#include "serving/sharded_engine.h"
#include "serving/wal.h"
#include "tests/test_util.h"
#include "util/env.h"
#include "util/failpoint.h"

// End-to-end fault-tolerance coverage: WAL recovery equals the uncrashed
// oracle, rolled-back epochs stay rolled back across recovery, deadline
// waits time out (and budgets past the clock's range wait unbounded), atomic
// saves never tear, and a corrupt shard serves degraded instead of failing
// the bundle. The process-kill variants of these scenarios live in the
// crash_torture driver; everything here fails softly (error returns) so it
// can run inside the shared gtest binary.

namespace csc {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

class FaultToleranceTest : public testing::Test {
 protected:
  void TearDown() override {
    Failpoints::Instance().ClearAll();
    std::remove(wal_path_.c_str());
    std::remove(index_path_.c_str());
  }

  void Arm(const std::string& site, FailpointMode mode, uint32_t countdown = 1) {
    FailpointAction action;
    action.mode = mode;
    action.countdown = countdown;
    Failpoints::Instance().Set(site, action);
  }

  std::string wal_path_ = TempPath("fault_tolerance.wal");
  std::string index_path_ = TempPath("fault_tolerance.idx");
};

// An Engine on the frozen backend, every other option at its default.
EngineOptions FrozenOptions() {
  EngineOptions options;
  options.backend = "frozen";
  return options;
}

std::vector<std::vector<EdgeUpdate>> SomeBatches() {
  return {
      {EdgeUpdate::Insert(7, 6), EdgeUpdate::Insert(6, 0)},
      {EdgeUpdate::Remove(0, 2), EdgeUpdate::Insert(2, 0)},
      {EdgeUpdate::Insert(9, 5), EdgeUpdate::Remove(6, 7)},
  };
}

std::string Serialized(Engine& engine) {
  std::string bytes;
  EXPECT_TRUE(engine.SaveTo(bytes));
  return bytes;
}

TEST_F(FaultToleranceTest, RecoveryMatchesUncrashedOracle) {
  // Crash victim: builds with a WAL, applies three batches, "crashes"
  // (destroyed without Checkpoint).
  DiGraph graph = Figure2Graph();
  EngineOptions options;
  options.backend = "frozen";
  options.wal_path = wal_path_;
  {
    Engine victim(options);
    ASSERT_TRUE(victim.Build(graph));
    ASSERT_TRUE(victim.wal_enabled());
    for (const auto& batch : SomeBatches()) {
      victim.ApplyUpdates(batch);
    }
  }
  // Recovery replays the WAL into a fresh engine.
  Engine recovered(options);
  std::string error;
  ASSERT_TRUE(recovered.RecoverFromFile(index_path_, &error)) << error;
  // The oracle never crashed: same build, same batches, no WAL.
  EngineOptions oracle_options;
  oracle_options.backend = "frozen";
  Engine oracle(oracle_options);
  ASSERT_TRUE(oracle.Build(graph));
  for (const auto& batch : SomeBatches()) {
    oracle.ApplyUpdates(batch);
  }
  EXPECT_EQ(Serialized(recovered), Serialized(oracle));
  EXPECT_EQ(recovered.QueryAll(), oracle.QueryAll());
}

TEST_F(FaultToleranceTest, RecoveryAfterCheckpointReplaysOnlyTheTail) {
  DiGraph graph = Figure2Graph();
  EngineOptions options;
  options.backend = "frozen";
  options.wal_path = wal_path_;
  auto batches = SomeBatches();
  {
    Engine victim(options);
    ASSERT_TRUE(victim.Build(graph));
    victim.ApplyUpdates(batches[0]);
    std::string error;
    ASSERT_TRUE(victim.Checkpoint(index_path_, &error)) << error;
    // The checkpoint truncated the log to one record.
    std::vector<WalRecord> records;
    ASSERT_TRUE(Wal::ReadAll(wal_path_, &records));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].type, WalRecordType::kCheckpoint);
    victim.ApplyUpdates(batches[1]);
  }
  Engine recovered(options);
  std::string error;
  ASSERT_TRUE(recovered.RecoverFromFile(index_path_, &error)) << error;
  Engine oracle(FrozenOptions());
  ASSERT_TRUE(oracle.Build(graph));
  oracle.ApplyUpdates(batches[0]);
  oracle.ApplyUpdates(batches[1]);
  EXPECT_EQ(Serialized(recovered), Serialized(oracle));
}

TEST_F(FaultToleranceTest, RecoverySkipsRolledBackEpochs) {
  DiGraph graph = Figure2Graph();
  EngineOptions options;
  options.backend = "frozen";
  options.wal_path = wal_path_;
  auto batches = SomeBatches();
  {
    Engine victim(options);
    ASSERT_TRUE(victim.Build(graph));
    EXPECT_GT(victim.ApplyUpdates(batches[0]), 0u);
    // The second batch's rebuild fails (no retries budgeted): the engine
    // rolls it back and logs a rollback record after the batch record.
    Arm("engine.rebuild", FailpointMode::kError);
    EXPECT_EQ(victim.ApplyUpdates(batches[1]), 0u);
    Failpoints::Instance().ClearAll();
    EXPECT_GT(victim.ApplyUpdates(batches[2]), 0u);
  }
  Engine recovered(options);
  std::string error;
  ASSERT_TRUE(recovered.RecoverFromFile(index_path_, &error)) << error;
  // The oracle applies only the surviving batches.
  Engine oracle(FrozenOptions());
  ASSERT_TRUE(oracle.Build(graph));
  oracle.ApplyUpdates(batches[0]);
  oracle.ApplyUpdates(batches[2]);
  EXPECT_EQ(Serialized(recovered), Serialized(oracle));
}

TEST_F(FaultToleranceTest, UnwritableRollbackRecordRebasesTheLog) {
  // Durable state == served state: when a failed landing's rollback record
  // cannot be appended, the engine re-bases the log on the rolled-back
  // graph, so recovery cannot replay the batch that never served.
  DiGraph graph = Figure2Graph();
  EngineOptions options = FrozenOptions();
  options.wal_path = wal_path_;
  auto batches = SomeBatches();
  std::vector<CycleCount> served;
  {
    Engine engine(options);
    ASSERT_TRUE(engine.Build(graph));
    EXPECT_GT(engine.ApplyUpdates(batches[0]), 0u);
    served = engine.QueryAll();
    Arm("engine.rebuild", FailpointMode::kError);
    Arm("wal.rollback", FailpointMode::kError);
    EXPECT_EQ(engine.ApplyUpdates(batches[1]), 0u);
    Failpoints::Instance().ClearAll();
    EXPECT_EQ(engine.QueryAll(), served);
    EXPECT_TRUE(engine.wal_enabled());
  }
  Engine recovered(options);
  std::string error;
  ASSERT_TRUE(recovered.RecoverFromFile(index_path_, &error)) << error;
  EXPECT_EQ(recovered.QueryAll(), served);
}

TEST_F(FaultToleranceTest, UnwritableRebasePoisonsTheLogUntilCheckpoint) {
  // If the re-base fails too, nothing more may be acknowledged against the
  // stale log: later batches are rejected until a Checkpoint starts a
  // fresh generation.
  DiGraph graph = Figure2Graph();
  EngineOptions options = FrozenOptions();
  options.wal_path = wal_path_;
  auto batches = SomeBatches();
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  std::vector<CycleCount> served = engine.QueryAll();
  Arm("engine.rebuild", FailpointMode::kError);
  Arm("wal.rollback", FailpointMode::kError);
  Arm("wal.checkpoint", FailpointMode::kError);
  EXPECT_EQ(engine.ApplyUpdates(batches[0]), 0u);
  Failpoints::Instance().ClearAll();
  std::vector<UpdateVerdict> verdicts;
  uint64_t epoch = 0;
  EXPECT_EQ(engine.ApplyUpdates(batches[2], &verdicts, &epoch), 0u);
  EXPECT_EQ(verdicts, std::vector<UpdateVerdict>(batches[2].size(),
                                                 UpdateVerdict::kRejected));
  EXPECT_FALSE(engine.WaitForEpoch(epoch));
  EXPECT_EQ(engine.QueryAll(), served);
  std::string error;
  ASSERT_TRUE(engine.Checkpoint(index_path_, &error)) << error;
  EXPECT_GT(engine.ApplyUpdates(batches[2]), 0u);
  served = engine.QueryAll();
  Engine recovered(options);
  ASSERT_TRUE(recovered.RecoverFromFile(index_path_, &error)) << error;
  EXPECT_EQ(recovered.QueryAll(), served);
}

TEST_F(FaultToleranceTest, DynamicBackendRecoveryMatchesOracle) {
  DiGraph graph = Figure2Graph();
  EngineOptions options;  // "csc": repaired snapshots, net ops in the WAL
  options.wal_path = wal_path_;
  {
    Engine victim(options);
    ASSERT_TRUE(victim.Build(graph));
    for (const auto& batch : SomeBatches()) {
      victim.ApplyUpdates(batch);
    }
  }
  Engine recovered(options);
  std::string error;
  ASSERT_TRUE(recovered.RecoverFromFile(index_path_, &error)) << error;
  Engine oracle;
  ASSERT_TRUE(oracle.Build(graph));
  for (const auto& batch : SomeBatches()) {
    oracle.ApplyUpdates(batch);
  }
  EXPECT_EQ(recovered.QueryAll(), oracle.QueryAll());
}

TEST_F(FaultToleranceTest, AppendFailureRejectsBatchBeforeAcknowledgment) {
  // Durability-before-acknowledgment: if the batch cannot reach the log,
  // the caller must see a rejection and the served state must not move.
  DiGraph graph = Figure2Graph();
  EngineOptions options;
  options.backend = "frozen";
  options.wal_path = wal_path_;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  std::vector<CycleCount> before = engine.QueryAll();
  Arm("wal.append", FailpointMode::kError);
  std::vector<UpdateVerdict> verdicts;
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(7, 6)}, &verdicts), 0u);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0], UpdateVerdict::kRejected);
  EXPECT_EQ(engine.QueryAll(), before);
  // The engine stays usable once the fault clears.
  Failpoints::Instance().ClearAll();
  EXPECT_GT(engine.ApplyUpdates({EdgeUpdate::Insert(7, 6)}), 0u);
}

TEST_F(FaultToleranceTest, AsyncAppendFailureDoesNotSkipPendingEpochs) {
  // Regression: with earlier epochs still in flight, a failed WAL append
  // used to jump resolved_epoch_ straight to the failed epoch — WaitForEpoch
  // reported the in-flight epochs landed while their batches rotted in the
  // unlanded queue forever.
  DiGraph graph = Figure2Graph();
  EngineOptions options;
  options.backend = "frozen";
  options.wal_path = wal_path_;
  options.async_updates = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  // Wedge the async worker so epoch A is admitted but unlanded when epoch
  // B's append fails.
  FailpointAction delay;
  delay.mode = FailpointMode::kDelay;
  delay.delay_ms = 200;
  Failpoints::Instance().Set("engine.async_rebuild", delay);
  uint64_t epoch_a = 0;
  engine.ApplyUpdates({EdgeUpdate::Insert(7, 6)}, nullptr, &epoch_a);
  Arm("wal.append", FailpointMode::kError);
  uint64_t epoch_b = 0;
  std::vector<UpdateVerdict> verdicts;
  EXPECT_EQ(engine.ApplyUpdates({EdgeUpdate::Insert(6, 0)}, &verdicts,
                                &epoch_b),
            0u);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0], UpdateVerdict::kRejected);
  ASSERT_GT(epoch_b, epoch_a);
  // A still lands (true), B stays rejected (false) — not the other way
  // around, and neither wait hangs.
  EXPECT_TRUE(engine.WaitForEpoch(epoch_a));
  EXPECT_FALSE(engine.WaitForEpoch(epoch_b));
  Engine oracle(FrozenOptions());
  ASSERT_TRUE(oracle.Build(graph));
  oracle.ApplyUpdates({EdgeUpdate::Insert(7, 6)});
  EXPECT_EQ(engine.QueryAll(), oracle.QueryAll());
}

TEST_F(FaultToleranceTest, RecoveryFailurePreservesCrashTimeLog) {
  // Regression: recovery used to CreateFresh (checkpoint-truncate) the log
  // *before* replaying — a crash or failure mid-replay had already thrown
  // away every acknowledged batch record. Recovery now stages the new
  // generation and publishes it only after replay succeeds, so a failed
  // recovery leaves the crash-time log byte-identical and retryable.
  DiGraph graph = Figure2Graph();
  EngineOptions options;
  options.backend = "frozen";
  options.wal_path = wal_path_;
  {
    Engine victim(options);
    ASSERT_TRUE(victim.Build(graph));
    for (const auto& batch : SomeBatches()) {
      victim.ApplyUpdates(batch);
    }
  }
  std::string crash_time_log = ReadFileToString(wal_path_).value();
  // countdown 2 skips past the staged checkpoint write/fsync and fires on
  // the first replayed batch; finalize is evaluated exactly once, at the
  // end-of-replay publish.
  const std::pair<const char*, uint32_t> sites[] = {
      {"wal.append", 2}, {"wal.fsync", 2}, {"wal.finalize", 1}};
  for (const auto& [site, countdown] : sites) {
    Arm(site, FailpointMode::kError, countdown);
    Engine failed(options);
    std::string error;
    EXPECT_FALSE(failed.RecoverFromFile(index_path_, &error)) << site;
    EXPECT_FALSE(error.empty()) << site;
    Failpoints::Instance().ClearAll();
    EXPECT_EQ(ReadFileToString(wal_path_).value(), crash_time_log) << site;
  }
  // The untouched log still recovers cleanly afterwards.
  Engine recovered(options);
  std::string error;
  ASSERT_TRUE(recovered.RecoverFromFile(index_path_, &error)) << error;
  Engine oracle(FrozenOptions());
  ASSERT_TRUE(oracle.Build(graph));
  for (const auto& batch : SomeBatches()) {
    oracle.ApplyUpdates(batch);
  }
  EXPECT_EQ(Serialized(recovered), Serialized(oracle));
}

TEST_F(FaultToleranceTest, WaitForEpochDeadlineTimesOut) {
  DiGraph graph = Figure2Graph();
  EngineOptions options;
  options.backend = "frozen";
  options.async_updates = true;
  Engine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  // Wedge the async worker long enough for the 5 ms deadline to pass.
  FailpointAction delay;
  delay.mode = FailpointMode::kDelay;
  delay.delay_ms = 300;
  Failpoints::Instance().Set("engine.async_rebuild", delay);
  uint64_t epoch = 0;
  engine.ApplyUpdates({EdgeUpdate::Insert(7, 6)}, nullptr, &epoch);
  EXPECT_EQ(engine.WaitForEpoch(epoch, std::chrono::milliseconds(5)),
            WaitStatus::kTimeout);
  // The batch still lands; a later deadline wait sees it.
  EXPECT_TRUE(engine.WaitForEpoch(epoch));
  EXPECT_EQ(engine.WaitForEpoch(epoch, std::chrono::milliseconds(5)),
            WaitStatus::kLanded);
}

// A budget too long for the clock (milliseconds::max(), a millennium) is
// an unbounded wait, not an overflowed deadline that has already passed:
// every waiter rides out the wedged worker and sees the landing.
TEST_F(FaultToleranceTest, OverlongWaitBudgetWaitsForTheLanding) {
  using std::chrono::milliseconds;
  const milliseconds millennium =
      std::chrono::duration_cast<milliseconds>(std::chrono::hours(24 * 365) *
                                               1000);
  FailpointAction delay;
  delay.mode = FailpointMode::kDelay;
  delay.delay_ms = 100;
  for (milliseconds budget : {milliseconds::max(), millennium}) {
    SCOPED_TRACE(budget.count());
    EngineOptions options = FrozenOptions();
    options.async_updates = true;
    Engine engine(options);
    ASSERT_TRUE(engine.Build(Figure2Graph()));
    Failpoints::Instance().Set("engine.async_rebuild", delay);
    uint64_t epoch = 0;
    engine.ApplyUpdates({EdgeUpdate::Insert(7, 6)}, nullptr, &epoch);
    EXPECT_EQ(engine.WaitForEpoch(epoch, budget), WaitStatus::kLanded);
    Failpoints::Instance().Set("engine.async_rebuild", delay);
    engine.ApplyUpdates({EdgeUpdate::Remove(7, 6)});
    EXPECT_EQ(engine.Drain(budget), WaitStatus::kLanded);

    ShardedEngineOptions sharded_options;
    sharded_options.backend = "frozen";
    sharded_options.num_shards = 2;
    sharded_options.async_updates = true;
    ShardedEngine sharded(sharded_options);
    ASSERT_TRUE(sharded.Build(RandomGraph(40, 2.0, 7)));
    Failpoints::Instance().Set("engine.async_rebuild", delay);
    std::vector<uint64_t> epochs;
    sharded.ApplyUpdates({EdgeUpdate::Insert(1, 0)}, &epochs);
    EXPECT_EQ(sharded.WaitForEpochs(epochs, budget), WaitStatus::kLanded);
  }
}

TEST_F(FaultToleranceTest, ShardedWaitForEpochsDeadline) {
  DiGraph graph = RandomGraph(40, 2.0, 7);
  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 2;
  options.async_updates = true;
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.Build(graph));
  FailpointAction delay;
  delay.mode = FailpointMode::kDelay;
  delay.delay_ms = 300;
  Failpoints::Instance().Set("engine.async_rebuild", delay);
  std::vector<uint64_t> epochs;
  engine.ApplyUpdates({EdgeUpdate::Insert(1, 0)}, &epochs);
  EXPECT_EQ(engine.WaitForEpochs(epochs, std::chrono::milliseconds(5)),
            WaitStatus::kTimeout);
  EXPECT_TRUE(engine.WaitForEpochs(epochs));
  EXPECT_EQ(engine.WaitForEpochs(epochs, std::chrono::milliseconds(5)),
            WaitStatus::kLanded);
  // A size-mismatched token vector can never land.
  EXPECT_EQ(engine.WaitForEpochs({}, std::chrono::milliseconds(5)),
            WaitStatus::kRolledBack);
}

TEST_F(FaultToleranceTest, AtomicSaveLeavesOldFileOnFailure) {
  DiGraph graph = Figure2Graph();
  Engine engine(FrozenOptions());
  ASSERT_TRUE(engine.Build(graph));
  auto snapshot = engine.snapshot();
  std::string error;
  ASSERT_TRUE(SaveBackendToFile(*snapshot, index_path_, &error)) << error;
  std::string original = ReadFileToString(index_path_).value();
  for (const char* site :
       {"atomic_write.open", "atomic_write.write", "atomic_write.fsync",
        "atomic_write.rename", "index_io.write"}) {
    Arm(site, site == std::string("atomic_write.write")
                  ? FailpointMode::kShortWrite
                  : FailpointMode::kError);
    error.clear();
    EXPECT_FALSE(SaveBackendToFile(*snapshot, index_path_, &error)) << site;
    EXPECT_FALSE(error.empty()) << site;
    // The failed save never tears the existing file.
    EXPECT_EQ(ReadFileToString(index_path_).value(), original) << site;
    Failpoints::Instance().ClearAll();
  }
}

TEST_F(FaultToleranceTest, IndexIoReadAndMmapFailpoints) {
  DiGraph graph = Figure2Graph();
  Engine engine(FrozenOptions());
  ASSERT_TRUE(engine.Build(graph));
  std::string error;
  ASSERT_TRUE(SaveBackendToFile(*engine.snapshot(), index_path_, &error))
      << error;
  // Injected mmap failure: Open falls back to a heap read and still serves.
  Arm("index_io.mmap", FailpointMode::kError);
  std::shared_ptr<IndexFile> file = IndexFile::Open(index_path_, &error);
  ASSERT_NE(file, nullptr) << error;
  EXPECT_FALSE(file->mapped());
  Failpoints::Instance().ClearAll();
  // Injected read failure: the copying loader reports it as unreadable.
  Arm("index_io.read", FailpointMode::kError);
  EXPECT_EQ(ReadVerifiedPayload(index_path_, &error), std::nullopt);
  EXPECT_FALSE(error.empty());
}

TEST_F(FaultToleranceTest, DegradedShardServesBfsCorrectAnswers) {
  // K = 4 bundle with one shard's bytes corrupted on disk: strict load
  // refuses, tolerant load quarantines exactly that shard, the fallback
  // graph restores exact answers, and ReloadShard brings the shard back.
  DiGraph graph = RandomGraph(60, 2.5, 11);
  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 4;
  ShardedEngine builder(options);
  ASSERT_TRUE(builder.Build(graph));
  std::vector<CycleCount> expected = builder.QueryAll();
  std::string bundle;
  ASSERT_TRUE(builder.SaveTo(bundle));
  std::string error;
  ASSERT_TRUE(SavePayloadToFile(bundle, index_path_, &error)) << error;
  std::string pristine = ReadFileToString(index_path_).value();

  // Walk the bundle framing to find shard 2's payload inside the file:
  // 16-byte file header, then bundle magic(8) + K(4) + domain(4) + flags(4),
  // then per shard u64 size | payload | u32 crc.
  std::string corrupt = pristine;
  size_t pos = 16 + 20;
  auto shard_size = [&corrupt](size_t at) {
    uint64_t size = 0;
    for (int b = 7; b >= 0; --b) {
      size = (size << 8) | static_cast<uint8_t>(corrupt[at + b]);
    }
    return static_cast<size_t>(size);
  };
  for (uint32_t s = 0; s < 2; ++s) pos += 8 + shard_size(pos) + 4;
  corrupt[pos + 8 + shard_size(pos) / 2] ^= 0x20;
  ASSERT_TRUE(WriteStringToFile(index_path_, corrupt));

  // Strict load: the whole-file checksum already refuses.
  ShardedEngine strict(options);
  error.clear();
  EXPECT_FALSE(strict.LoadFromFile(index_path_, &error));
  EXPECT_FALSE(error.empty());

  // Tolerant load: shard 2 quarantined, the others healthy.
  ShardedEngineOptions tolerant = options;
  tolerant.tolerate_faults = true;
  ShardedEngine degraded(tolerant);
  error.clear();
  ASSERT_TRUE(degraded.LoadFromFile(index_path_, &error)) << error;
  ASSERT_TRUE(degraded.degraded());
  EXPECT_EQ(degraded.shard_state(2), ShardState::kQuarantined);
  EXPECT_FALSE(degraded.shard_fault(2).empty());
  for (uint32_t s : {0u, 1u, 3u}) {
    EXPECT_EQ(degraded.shard_state(s), ShardState::kHealthy) << s;
  }

  // Without a fallback graph, quarantined vertices answer a typed empty.
  Vertex quarantined_vertex = 0;
  for (Vertex v = 0; v < degraded.num_vertices(); ++v) {
    if (degraded.ShardOf(v) == 2) {
      quarantined_vertex = v;
      break;
    }
  }
  ShardedQueryResult placeholder = degraded.QueryWithStatus(quarantined_vertex);
  EXPECT_EQ(placeholder.served_by, ShardState::kQuarantined);
  EXPECT_EQ(placeholder.count.count, 0u);
  // Degraded deployments are read-only.
  EXPECT_EQ(degraded.ApplyUpdates({EdgeUpdate::Insert(1, 0)}), 0u);

  // With the fallback graph, every vertex — quarantined owners included —
  // answers exactly what the healthy deployment answered.
  degraded.SetFallbackGraph(graph);
  EXPECT_EQ(degraded.shard_state(2), ShardState::kDegraded);
  EXPECT_EQ(degraded.QueryAll(), expected);
  EXPECT_EQ(degraded.QueryWithStatus(quarantined_vertex).served_by,
            ShardState::kDegraded);
  std::vector<ShardInfo> stats = degraded.Stats();
  EXPECT_EQ(stats[2].state, ShardState::kDegraded);
  EXPECT_FALSE(stats[2].fault.empty());

  // Online repair: restore the pristine bundle, reload just shard 2.
  ASSERT_TRUE(WriteStringToFile(index_path_, pristine));
  error.clear();
  ASSERT_TRUE(degraded.ReloadShard(2, index_path_, &error)) << error;
  EXPECT_FALSE(degraded.degraded());
  EXPECT_EQ(degraded.QueryAll(), expected);
  EXPECT_EQ(degraded.QueryWithStatus(quarantined_vertex).served_by,
            ShardState::kHealthy);
}

TEST_F(FaultToleranceTest, LoadShardFailpointQuarantinesOrFails) {
  DiGraph graph = RandomGraph(40, 2.0, 3);
  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 3;
  ShardedEngine builder(options);
  ASSERT_TRUE(builder.Build(graph));
  std::string bundle;
  ASSERT_TRUE(builder.SaveTo(bundle));

  // Strict: an injected per-shard load fault fails the whole load, naming
  // the shard.
  Arm("sharded.load_shard", FailpointMode::kError, /*countdown=*/2);
  ShardedEngine strict(options);
  std::string error;
  EXPECT_FALSE(strict.LoadFrom(bundle, &error));
  EXPECT_NE(error.find("shard 1"), std::string::npos) << error;
  Failpoints::Instance().ClearAll();

  // Tolerant: the same fault quarantines shard 1 and serves the rest.
  ShardedEngineOptions tolerant = options;
  tolerant.tolerate_faults = true;
  Arm("sharded.load_shard", FailpointMode::kError, /*countdown=*/2);
  ShardedEngine degraded(tolerant);
  ASSERT_TRUE(degraded.LoadFrom(bundle, &error)) << error;
  EXPECT_EQ(degraded.shard_state(1), ShardState::kQuarantined);
  EXPECT_EQ(degraded.shard_state(0), ShardState::kHealthy);
  EXPECT_EQ(degraded.shard_state(2), ShardState::kHealthy);
}

}  // namespace
}  // namespace csc
