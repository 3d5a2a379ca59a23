// Crash-torture driver: kills the process at every persistence failpoint
// and proves recovery.
//
// For each (site, countdown) in the torture matrix the parent forks a
// CRASHER child that arms the site in kAbort mode and runs a deterministic
// serving workload (build with a WAL, acknowledge batches, checkpoint
// mid-way, acknowledge more). The child dies by _Exit(134) at the armed
// site — no unwinding, no flushing, exactly like a power cut at that
// instant. The parent then forks a clean VERIFIER child that:
//
//   1. recovers an Engine from whatever the crash left on disk
//      (Engine::RecoverFromFile over the index file + WAL),
//   2. rebuilds an oracle from the surviving WAL records directly
//      (checkpoint base graph + non-rolled-back batches, applied through a
//      WAL-less engine) and requires the recovered serialization to be
//      byte-identical, and
//   3. requires every epoch the crasher acknowledged *after the last
//      checkpoint* to be present in the log — durability before
//      acknowledgment (acks are recorded in a side file, fsync'd line by
//      line, so the ack record is itself crash-consistent).
//
// A second phase then targets recovery itself: after a clean workload run,
// a child is killed at each recovery-path failpoint (base rebuild, replay
// appends into the staged log generation, the publishing rename) and a
// clean re-recovery must still match the oracle — the window where a
// recovery that truncated the log before finishing its replay would lose
// acknowledged batches.
//
// Both phases run twice: once against a synchronous rebuild-and-swap
// engine, and once against an async engine with incremental repair, where
// batches land on the background lander as label patches and the crasher
// waits for each epoch to land before recording its ack.
//
// The parent never constructs an Engine (fork would duplicate its thread
// pool mid-state); all engine work happens in freshly forked children.
//
// Exit status: 0 when every scenario verifies, 1 otherwise. Registered as a
// CTest test (see tests/CMakeLists.txt). POSIX-only; a stub main keeps the
// target building elsewhere.

#if defined(_WIN32)
#include <cstdio>
int main() {
  std::printf("crash_torture: skipped (POSIX-only)\n");
  return 0;
}
#else

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "graph/generators.h"
#include "serving/engine.h"
#include "serving/wal.h"
#include "util/env.h"
#include "util/failpoint.h"

namespace csc {
namespace {

// One scenario's files, plus the engine variant every child builds.
struct Paths {
  std::string index;
  std::string wal;
  std::string acks;
  bool async_repair = false;
};

DiGraph WorkloadGraph() { return GenerateErdosRenyi(40, 100, /*seed=*/7); }

std::vector<std::vector<EdgeUpdate>> WorkloadBatches() {
  // Deterministic, index-affecting batches; enough of them that countdowns
  // up to 4 hit wal.append / atomic_write sites at different phases.
  std::vector<std::vector<EdgeUpdate>> batches;
  for (uint32_t i = 0; i < 6; ++i) {
    batches.push_back({EdgeUpdate::Insert(i, (i + 7) % 40),
                       EdgeUpdate::Insert((i + 13) % 40, i),
                       EdgeUpdate::Remove(i, (i + 1) % 40)});
  }
  return batches;
}

EngineOptions WorkloadOptions(const Paths& paths) {
  EngineOptions options;
  options.backend = "frozen";
  options.wal_path = paths.wal;
  options.async_updates = paths.async_repair;
  options.repair.enabled = paths.async_repair;
  return options;
}

// Appends one line to the ack file and fsyncs it, so an acknowledgment
// recorded here has the same durability the engine promised the caller.
bool AppendAckLine(const std::string& path, const std::string& line) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) return false;
  std::string data = line + "\n";
  bool ok = ::write(fd, data.data(), data.size()) ==
                static_cast<ssize_t>(data.size()) &&
            ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

// The crasher body: run the workload to completion (the armed abort kills
// the process somewhere in the middle; an empty site runs clean). Exit 0 =
// the site never fired.
int RunCrasher(const Paths& paths, const std::string& site,
               uint32_t countdown) {
  if (!site.empty()) {
    FailpointAction action;
    action.mode = FailpointMode::kAbort;
    action.countdown = countdown;
    Failpoints::Instance().Set(site, action);
  }

  Engine engine(WorkloadOptions(paths));
  if (!engine.Build(WorkloadGraph())) return 2;
  std::vector<std::vector<EdgeUpdate>> batches = WorkloadBatches();
  for (size_t i = 0; i < batches.size(); ++i) {
    uint64_t epoch = 0;
    size_t applied = engine.ApplyUpdates(batches[i], nullptr, &epoch);
    if (applied > 0 && engine.WaitForEpoch(epoch)) {
      if (!AppendAckLine(paths.acks, std::to_string(epoch))) return 2;
    }
    if (i == 2) {
      // "ckpt-begin" marks the folding window: once Checkpoint starts, the
      // WAL truncation may fold earlier acks into the checkpoint record at
      // any instant, so the verifier must accept either placement for them.
      if (!AppendAckLine(paths.acks, "ckpt-begin")) return 2;
      std::string error;
      if (engine.Checkpoint(paths.index, &error)) {
        if (!AppendAckLine(paths.acks, "ckpt")) return 2;
      }
    }
  }
  return 0;
}

// Builds the replay oracle from `records` (checkpoint base graph +
// surviving batches minus rolled-back epochs, applied one landed epoch at a
// time through a WAL-less engine of the same variant), recovers an Engine
// from disk, and requires the serializations to match byte-for-byte.
// `records.front()` must be a checkpoint record.
int OracleVsRecovery(const Paths& paths, const std::vector<WalRecord>& records,
                     const std::string& scenario) {
  auto fail = [&scenario](const std::string& why) {
    std::fprintf(stderr, "FAIL [%s]: %s\n", scenario.c_str(), why.c_str());
    return 1;
  };
  DiGraph base =
      DiGraph::FromEdges(records.front().num_vertices, records.front().edges);
  std::vector<std::pair<uint64_t, uint64_t>> rolled_back;
  for (const WalRecord& record : records) {
    if (record.type == WalRecordType::kRollback) {
      rolled_back.emplace_back(record.epoch, record.epoch_last);
    }
  }
  EngineOptions oracle_options = WorkloadOptions(paths);
  oracle_options.wal_path.clear();
  Engine oracle(oracle_options);
  if (!oracle.Build(base)) return fail("oracle build failed");
  for (const WalRecord& record : records) {
    if (record.type != WalRecordType::kBatch) continue;
    bool skip = false;
    for (const auto& [first, last] : rolled_back) {
      if (record.epoch >= first && record.epoch <= last) skip = true;
    }
    if (skip) continue;
    uint64_t epoch = 0;
    oracle.ApplyUpdates(record.updates, nullptr, &epoch);
    if (!oracle.WaitForEpoch(epoch)) return fail("oracle batch rolled back");
  }

  Engine recovered(WorkloadOptions(paths));
  std::string error;
  if (!recovered.RecoverFromFile(paths.index, &error)) {
    return fail("recovery failed: " + error);
  }
  std::string oracle_bytes, recovered_bytes;
  if (!oracle.SaveTo(oracle_bytes) || !recovered.SaveTo(recovered_bytes)) {
    return fail("serialization failed");
  }
  if (oracle_bytes != recovered_bytes) {
    return fail("recovered state differs from the replay oracle");
  }
  return 0;
}

// The recovery-crasher body: arm the site and recover from whatever the
// clean workload run left on disk — the abort kills the process mid-replay
// (or mid-publish), exactly the window where a naive recovery would have
// already truncated the log it is still replaying.
int RunRecoveryCrasher(const Paths& paths, const std::string& site,
                       uint32_t countdown) {
  FailpointAction action;
  action.mode = FailpointMode::kAbort;
  action.countdown = countdown;
  Failpoints::Instance().Set(site, action);
  Engine engine(WorkloadOptions(paths));
  std::string error;
  (void)engine.RecoverFromFile(paths.index, &error);
  return 0;
}

// The verifier body: reads the crash-time log, checks ack durability,
// builds the replay oracle, then recovers and compares byte-for-byte. The
// oracle is built from the log BEFORE RecoverFromFile runs, because
// recovery re-establishes a fresh log in place of the crash-time one.
int RunOracleAndVerify(const Paths& paths, const std::string& scenario) {
  auto fail = [&scenario](const std::string& why) {
    std::fprintf(stderr, "FAIL [%s]: %s\n", scenario.c_str(), why.c_str());
    return 1;
  };

  // 1. Read the crash-time log (tolerates a torn tail).
  std::vector<WalRecord> records;
  std::string error;
  if (!Wal::ReadAll(paths.wal, &records, &error)) {
    return fail("crash-time WAL unreadable: " + error);
  }

  // 2. Durability before acknowledgment: every acked epoch must survive in
  // the log. Epochs acked after the last completed checkpoint must appear
  // as batch records. Epochs acked before a checkpoint that was IN FLIGHT
  // at crash time ("ckpt-begin" with no matching "ckpt") are allowed to be
  // folded instead: the truncated log's checkpoint record absorbs them —
  // but only when the log's checkpoint graph provably differs from the
  // build-time base, i.e. a fold really happened.
  std::vector<uint64_t> acked;       // must be batch records
  std::vector<uint64_t> maybe_folded;  // batch record OR folded checkpoint
  bool checkpoint_in_flight = false;
  {
    std::FILE* f = std::fopen(paths.acks.c_str(), "r");
    if (f != nullptr) {
      char line[64];
      while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "ckpt-begin", 10) == 0) {
          maybe_folded = acked;
          acked.clear();
          checkpoint_in_flight = true;
        } else if (std::strncmp(line, "ckpt", 4) == 0) {
          maybe_folded.clear();  // checkpoint completed: folds are final
          acked.clear();
          checkpoint_in_flight = false;
        } else {
          acked.push_back(std::strtoull(line, nullptr, 10));
        }
      }
      std::fclose(f);
    }
  }
  if (!checkpoint_in_flight) maybe_folded.clear();
  bool checkpointed = !records.empty() &&
                      records.front().type == WalRecordType::kCheckpoint;
  bool folded = false;
  if (checkpointed) {
    // A fold changed the checkpoint graph away from the build-time base.
    const DiGraph base = WorkloadGraph();
    DiGraph logged =
        DiGraph::FromEdges(records.front().num_vertices, records.front().edges);
    folded = logged.num_vertices() != base.num_vertices() ||
             logged.num_edges() != base.num_edges();
    for (Vertex v = 0; !folded && v < base.num_vertices(); ++v) {
      if (base.OutNeighbors(v) != logged.OutNeighbors(v)) folded = true;
    }
  }
  auto in_log = [&records](uint64_t epoch) {
    for (const WalRecord& record : records) {
      if (record.type == WalRecordType::kBatch && record.epoch == epoch) {
        return true;
      }
    }
    return false;
  };
  if (checkpointed) {
    for (uint64_t epoch : acked) {
      if (!in_log(epoch)) {
        return fail("acked epoch " + std::to_string(epoch) +
                    " missing from the log");
      }
    }
    for (uint64_t epoch : maybe_folded) {
      if (!in_log(epoch) && !folded) {
        return fail("acked epoch " + std::to_string(epoch) +
                    " neither in the log nor folded into its checkpoint");
      }
    }
  }

  // 3 + 4. Oracle replay and byte-for-byte comparison (shared with the
  // recovery-crash verifier below).
  if (!checkpointed) {
    // The crash predates any complete log (e.g. wal.checkpoint abort in
    // Build): with nothing acknowledged there is nothing to verify.
    if (!acked.empty() || !maybe_folded.empty()) {
      return fail("acks exist but no checkpoint survived");
    }
    return 0;
  }
  return OracleVsRecovery(paths, records, scenario);
}

// The recovery-crash verifier body. The oracle comes from the log as it
// stood BEFORE the crashed recovery ran (the parent snapshots it): that is
// the acknowledged history, and it must survive no matter where recovery
// died. The actual recovery then runs against whatever the crash left —
// the pre-crash generation when the staged replacement never published,
// the replayed generation when it did; both must reproduce the oracle
// byte-for-byte. A recovery that truncated the log before finishing its
// replay fails here: the post-crash log can no longer rebuild the oracle's
// state. (Ack-epoch checks don't apply: recovery renumbers epochs.)
int RunRecoveryCrashVerify(const Paths& paths,
                           const std::string& precrash_wal,
                           const std::string& scenario) {
  auto fail = [&scenario](const std::string& why) {
    std::fprintf(stderr, "FAIL [%s]: %s\n", scenario.c_str(), why.c_str());
    return 1;
  };
  std::vector<WalRecord> records;
  std::string error;
  if (!Wal::ReadAll(precrash_wal, &records, &error)) {
    return fail("pre-crash WAL snapshot unreadable: " + error);
  }
  if (records.empty() || records.front().type != WalRecordType::kCheckpoint) {
    // The clean workload run checkpointed; an empty snapshot means the
    // parent's copy step failed, not a durability bug.
    return fail("pre-crash WAL snapshot has no checkpoint");
  }
  return OracleVsRecovery(paths, records, scenario);
}

// Runs both phases against one engine variant; returns the failure count
// and adds to `*crashes` / `*scenarios_run`.
int RunVariant(const std::string& dir, bool async_repair, int* crashes,
               size_t* scenarios_run) {
  const std::string variant = async_repair ? "async+repair/" : "";
  struct Scenario {
    const char* site;
    uint32_t countdown;
  };
  // Every persistence failpoint, each at several countdowns so the abort
  // lands in different phases of the workload (initial log create,
  // steady-state appends, the checkpoint's save + truncate).
  const std::vector<Scenario> scenarios = {
      {"wal.open", 1},          {"wal.open", 2},
      {"wal.append", 1},        {"wal.append", 2},
      {"wal.append", 4},        {"wal.fsync", 1},
      {"wal.fsync", 3},         {"wal.checkpoint", 1},
      {"wal.checkpoint", 2},    {"atomic_write.open", 1},
      {"atomic_write.open", 2}, {"atomic_write.write", 1},
      {"atomic_write.write", 2}, {"atomic_write.fsync", 1},
      {"atomic_write.fsync", 2}, {"atomic_write.rename", 1},
      {"atomic_write.rename", 2}, {"index_io.write", 1},
      // Mid-landing sites; they only fire on the async+repair variant,
      // where the lander dies with admitted, logged, unlanded epochs.
      {"engine.async_rebuild", 3}, {"engine.patch", 2},
  };
  int failures = 0;
  for (const Scenario& scenario : scenarios) {
    Paths paths;
    paths.async_repair = async_repair;
    std::string prefix = dir + "/" + (async_repair ? "async." : "") +
                         scenario.site + "." +
                         std::to_string(scenario.countdown);
    paths.index = prefix + ".idx";
    paths.wal = prefix + ".wal";
    paths.acks = prefix + ".acks";
    ::unlink(paths.index.c_str());
    ::unlink(paths.wal.c_str());
    ::unlink(paths.acks.c_str());

    std::string name = variant + scenario.site + "@" +
                       std::to_string(scenario.countdown);
    // Flush before forking: the children inherit the stdio buffers, and the
    // abort path exits through std::_Exit which would otherwise replay any
    // buffered parent output.
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t crasher = ::fork();
    if (crasher == 0) {
      ::_exit(RunCrasher(paths, scenario.site, scenario.countdown));
    }
    int status = 0;
    ::waitpid(crasher, &status, 0);
    bool crashed = WIFEXITED(status) && WEXITSTATUS(status) == 134;
    bool survived = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!crashed && !survived) {
      std::fprintf(stderr, "FAIL [%s]: crasher exited abnormally (%d)\n",
                   name.c_str(), status);
      ++failures;
      continue;
    }
    if (crashed) ++*crashes;

    pid_t verifier = ::fork();
    if (verifier == 0) {
      ::_exit(RunOracleAndVerify(paths, name));
    }
    ::waitpid(verifier, &status, 0);
    bool verified = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    std::printf("%-40s %s -> %s\n", name.c_str(),
                crashed ? "crashed " : "survived",
                verified ? "recovered" : "FAILED");
    if (!verified) ++failures;

    ::unlink(paths.index.c_str());
    ::unlink(paths.wal.c_str());
    ::unlink(paths.acks.c_str());
  }

  // Phase 2: crash *inside recovery*. A clean workload run leaves an index
  // file plus a WAL holding post-checkpoint batches; a child is then killed
  // at each recovery-path failpoint — while the base graph rebuilds, while
  // batches replay into the staged log generation, and at the publishing
  // rename itself. The acknowledged state must survive every one of those
  // windows: a clean second recovery has to match the oracle built from
  // whichever log generation the crash left published.
  const std::vector<Scenario> recovery_scenarios = {
      {"wal.open", 1},     {"wal.append", 1},     {"wal.append", 3},
      {"wal.fsync", 2},    {"wal.finalize", 1},   {"engine.rebuild", 1},
      {"engine.patch", 1},
  };
  for (const Scenario& scenario : recovery_scenarios) {
    Paths paths;
    paths.async_repair = async_repair;
    std::string prefix = dir + "/" + (async_repair ? "async." : "") +
                         "recover." + scenario.site + "." +
                         std::to_string(scenario.countdown);
    paths.index = prefix + ".idx";
    paths.wal = prefix + ".wal";
    paths.acks = prefix + ".acks";
    ::unlink(paths.index.c_str());
    ::unlink(paths.wal.c_str());
    ::unlink(paths.acks.c_str());
    std::string name = variant + "recover/" + scenario.site + "@" +
                       std::to_string(scenario.countdown);

    std::fflush(stdout);
    std::fflush(stderr);
    pid_t workload = ::fork();
    if (workload == 0) {
      ::_exit(RunCrasher(paths, /*site=*/"", /*countdown=*/0));
    }
    int status = 0;
    ::waitpid(workload, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "FAIL [%s]: clean workload run failed (%d)\n",
                   name.c_str(), status);
      ++failures;
      continue;
    }

    // Snapshot the acknowledged history before recovery can touch the log:
    // the verifier's oracle must come from this copy, or a recovery that
    // destroys log records would be graded against its own damage.
    const std::string precrash_wal = paths.wal + ".precrash";
    {
      std::optional<std::string> bytes = ReadFileToString(paths.wal);
      if (!bytes.has_value() ||
          !WriteStringToFile(precrash_wal, bytes.value())) {
        std::fprintf(stderr, "FAIL [%s]: could not snapshot the WAL\n",
                     name.c_str());
        ++failures;
        continue;
      }
    }

    pid_t crasher = ::fork();
    if (crasher == 0) {
      ::_exit(RunRecoveryCrasher(paths, scenario.site, scenario.countdown));
    }
    ::waitpid(crasher, &status, 0);
    bool crashed = WIFEXITED(status) && WEXITSTATUS(status) == 134;
    bool survived = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!crashed && !survived) {
      std::fprintf(stderr, "FAIL [%s]: recoverer exited abnormally (%d)\n",
                   name.c_str(), status);
      ++failures;
      continue;
    }
    if (crashed) ++*crashes;

    pid_t verifier = ::fork();
    if (verifier == 0) {
      ::_exit(RunRecoveryCrashVerify(paths, precrash_wal, name));
    }
    ::waitpid(verifier, &status, 0);
    bool verified = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    std::printf("%-40s %s -> %s\n", name.c_str(),
                crashed ? "crashed " : "survived",
                verified ? "recovered" : "FAILED");
    if (!verified) ++failures;

    ::unlink(paths.index.c_str());
    ::unlink(paths.wal.c_str());
    ::unlink(paths.acks.c_str());
    ::unlink(precrash_wal.c_str());
  }

  *scenarios_run += scenarios.size() + recovery_scenarios.size();
  return failures;
}

int RunParent(const std::string& dir) {
  int crashes = 0;
  size_t scenarios = 0;
  int failures = RunVariant(dir, /*async_repair=*/false, &crashes, &scenarios);
  failures += RunVariant(dir, /*async_repair=*/true, &crashes, &scenarios);
  if (crashes == 0) {
    std::fprintf(stderr,
                 "FAIL: no scenario crashed — the failpoints never fired\n");
    return 1;
  }
  std::printf("crash_torture: %zu scenarios, %d crashes, %d failures\n",
              scenarios, crashes, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace csc

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : "";
  if (dir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    dir = (tmp != nullptr ? std::string(tmp) : std::string("/tmp")) +
          "/csc_crash_torture";
  }
  ::mkdir(dir.c_str(), 0755);
  return csc::RunParent(dir);
}
#endif  // _WIN32
