// Negative fixture for tools/check_contracts.py rule 3
// (blocking-under-lock): durable I/O reachable while the reader-facing
// query_mu_ is held — directly on its writer side, and through a same-TU
// helper on its reader side (the transitive half of the rule). Never
// compiled — consumed by `check_contracts.py --selftest`.
//
// expect-violation: blocking-under-lock

#include <string>

namespace csc {

struct SharedMutex {};
struct WriterMutexLock {
  explicit WriterMutexLock(SharedMutex& mu);
};
struct ReaderMutexLock {
  explicit ReaderMutexLock(SharedMutex& mu);
};
struct Wal {
  void AppendBatch(const std::string& record);
};

class BadEngine {
 public:
  // BAD: WAL fsync-backed append directly inside the swap's writer section
  // — every reader stalls behind disk latency.
  void Swap(const std::string& record) {
    WriterMutexLock lock(query_mu_);
    wal_->AppendBatch(record);
  }

  // BAD (transitive): the query read-section calls a helper that blocks.
  int Query(int fd) {
    ReaderMutexLock lock(query_mu_);
    FlushSideChannel(fd);
    return 0;
  }

 private:
  void FlushSideChannel(int fd) { fsync(fd); }

  SharedMutex query_mu_;
  Wal* wal_ = nullptr;
};

}  // namespace csc
