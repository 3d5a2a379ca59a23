#ifndef CSC_UTIL_FAILPOINT_H_
#define CSC_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace csc {

/// Deterministic fault injection for the persistence and serving fault
/// surfaces. A *failpoint* is a named site compiled into production code
/// (`CSC_FAILPOINT("wal.append")`); it costs one relaxed atomic load while
/// inactive and does nothing else. Tests — or an operator reproducing a
/// field failure — arm sites programmatically (Failpoints::Set) or through
/// the environment:
///
///   CSC_FAILPOINTS=site=mode[:param...][,site=mode...]
///
/// e.g. CSC_FAILPOINTS=wal.append=abort:countdown:3,atomic_write.write=error
///
/// Modes:
///   error       the site reports failure; the caller takes its error path
///               (returns false / rolls back) exactly as on a real I/O error
///   short-write the site truncates its write (param `keep:N` bytes, default
///               half) and then reports failure — a torn write
///   delay       the site sleeps (param `ms:N`, default 100) and proceeds —
///               a wedged disk or worker for deadline/timeout tests
///   abort       the process dies on the spot via _Exit(134), no unwinding
///               and no buffer flushing — the crash-torture primitive
///   throw       the site throws std::runtime_error — an exception escaping
///               the work at the site (std::bad_alloc, a rethrown worker
///               exception) for tests of the caller's catch path
///
/// Shared param: `countdown:K` — the site passes K-1 evaluations and fires
/// on the K-th (default 1); after firing once the site disarms, so "crash on
/// the 3rd append" is expressible and re-runs are deterministic.
///
/// Sites self-register on first evaluation; Failpoints::RegisteredNames()
/// enumerates them (the crash-torture driver runs one clean pass to
/// register every persistence site, then crashes at each in turn).

enum class FailpointMode : uint8_t {
  kOff = 0,
  kError,
  kShortWrite,
  kDelay,
  kAbort,
  kThrow,
};

/// One armed action. `countdown` evaluations pass before the action fires
/// (1 = fire immediately); a fired action disarms its site.
struct FailpointAction {
  FailpointMode mode = FailpointMode::kOff;
  uint32_t countdown = 1;
  /// kDelay: milliseconds to sleep.
  uint32_t delay_ms = 100;
  /// kShortWrite: bytes the caller should actually write before failing.
  /// SIZE_MAX = "half of the attempted write" (decided by the caller).
  uint64_t keep_bytes = UINT64_MAX;
};

/// What a fired evaluation tells the call site to do. Inactive sites and
/// passed countdowns return {false, ...}. kDelay sleeps inside Evaluate and
/// returns {false}; kAbort never returns; kThrow throws out of Evaluate.
struct FailpointFire {
  /// Take the error path (kError and kShortWrite).
  bool fail = false;
  /// kShortWrite only: bytes to actually write before failing (UINT64_MAX
  /// when not a short write).
  uint64_t keep_bytes = UINT64_MAX;
};

/// One compiled-in site. Created as a function-local static by the
/// CSC_FAILPOINT* macros; registers itself with the global registry on
/// construction and picks up any action armed for its name before the first
/// evaluation.
class FailpointSite {
 public:
  explicit FailpointSite(const char* name);

  const std::string& name() const { return name_; }

  /// The inline fast path: true only while an action is armed.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// The slow path — called only while armed. Decrements the countdown,
  /// fires the action when it reaches zero (sleeping / aborting / throwing
  /// in here for kDelay / kAbort / kThrow), and disarms the site after
  /// firing.
  FailpointFire Evaluate();

 private:
  friend class Failpoints;

  const std::string name_;
  std::atomic<bool> armed_{false};
};

/// The process-wide registry: site registration, programmatic and
/// environment activation. All methods are thread-safe.
class Failpoints {
 public:
  static Failpoints& Instance();

  /// Arms (or re-arms) `name`. The site need not be registered yet — the
  /// action is held and applied when the site first evaluates.
  void Set(const std::string& name, const FailpointAction& action);

  /// Disarms `name` (no-op if not armed).
  void Clear(const std::string& name);

  /// Disarms every site and drops pending actions.
  void ClearAll();

  /// Parses a CSC_FAILPOINTS-style spec ("a=error,b=abort:countdown:2") and
  /// arms each entry. False with `error` set (when non-null) on a malformed
  /// spec; entries before the malformed one stay armed.
  bool ParseSpec(const std::string& spec, std::string* error = nullptr);

  /// Names of every site evaluated at least once this process, sorted.
  std::vector<std::string> RegisteredNames() const;

  /// True if `name` has registered (evaluated at least once).
  bool IsRegistered(const std::string& name) const;

 private:
  friend class FailpointSite;

  Failpoints();

  void Register(FailpointSite* site);
  FailpointFire EvaluateSlow(FailpointSite* site);

  mutable Mutex mu_;
  // Armed (or pending-for-unregistered-site) actions by name.
  std::vector<std::pair<std::string, FailpointAction>> actions_
      CSC_GUARDED_BY(mu_);
  // Every site constructed so far (function-local statics: never destroyed
  // before process exit, so raw pointers are safe).
  std::vector<FailpointSite*> sites_ CSC_GUARDED_BY(mu_);
};

}  // namespace csc

/// `if (CSC_FAILPOINT("site")) return false;` — true when an armed kError /
/// kShortWrite action fires here. kDelay sleeps and yields false; kAbort
/// kills the process; kThrow throws std::runtime_error. Near-zero cost when unarmed (one relaxed atomic load).
#define CSC_FAILPOINT(site_name)                            \
  ([]() -> bool {                                           \
    static ::csc::FailpointSite csc_fp_site(site_name);     \
    return csc_fp_site.armed() &&                           \
           csc_fp_site.Evaluate().fail;                     \
  }())

/// Short-write-aware form for write loops: evaluates the site and, when a
/// kShortWrite action fires, stores the byte budget into `*keep_out`
/// (UINT64_MAX otherwise). Returns true when the caller must fail after
/// writing at most `*keep_out` bytes.
#define CSC_FAILPOINT_SHORT_WRITE(site_name, keep_out)      \
  ([](uint64_t* csc_fp_keep) -> bool {                      \
    static ::csc::FailpointSite csc_fp_site(site_name);     \
    *csc_fp_keep = UINT64_MAX;                              \
    if (!csc_fp_site.armed()) return false;                 \
    ::csc::FailpointFire fire = csc_fp_site.Evaluate();     \
    *csc_fp_keep = fire.keep_bytes;                         \
    return fire.fail;                                       \
  }(keep_out))

#endif  // CSC_UTIL_FAILPOINT_H_
