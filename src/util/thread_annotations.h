#ifndef CSC_UTIL_THREAD_ANNOTATIONS_H_
#define CSC_UTIL_THREAD_ANNOTATIONS_H_

/// Portable Clang Thread Safety Analysis annotations.
///
/// These macros attach the repo's locking contracts to the types that carry
/// them (util/mutex.h) and to the code that relies on them, so a Clang build
/// with `-Wthread-safety` verifies the lock discipline at compile time:
/// which mutex guards which member (CSC_GUARDED_BY), which lock a helper
/// must be called under (CSC_REQUIRES), and which locks a function acquires
/// or must not already hold (CSC_ACQUIRE / CSC_EXCLUDES). On GCC and MSVC
/// every macro expands to nothing, so the annotations cost nothing where the
/// analysis is unavailable — the dynamic checking story (the TSan CI job)
/// still covers those builds.
///
/// Conventions used across the codebase:
///   - every mutex member documents its protected state with CSC_GUARDED_BY
///     on the members (or carries a `lint:allow-unguarded-mutex` waiver —
///     tools/lint_invariants.py enforces one or the other);
///   - private helpers named `*Locked` state their contract with
///     CSC_REQUIRES instead of a comment;
///   - blocking entry points that take a lock internally are marked
///     CSC_EXCLUDES so self-deadlock is a compile error at the call site;
///   - CSC_NO_THREAD_SAFETY_ANALYSIS is an escape hatch of last resort and
///     every use must carry a justifying comment (the CI budget is <= 3).

#if defined(__clang__) && !defined(SWIG)
#define CSC_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define CSC_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

/// Declares a type to be a capability ("mutex"-like). The analysis tracks
/// acquisition and release of capability objects.
#define CSC_CAPABILITY(x) CSC_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Declares an RAII type whose constructor acquires and destructor releases
/// a capability (MutexLock and friends).
#define CSC_SCOPED_CAPABILITY \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// The member is protected by the given capability: reads require the
/// capability held (shared or exclusive), writes require it exclusive.
#define CSC_GUARDED_BY(x) CSC_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// The pointed-to data (not the pointer itself) is protected by the given
/// capability.
#define CSC_PT_GUARDED_BY(x) \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// The function must be called with the capability held exclusively (and
/// does not release it).
#define CSC_REQUIRES(...) \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

/// As CSC_REQUIRES, for shared (reader) access.
#define CSC_REQUIRES_SHARED(...) \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability exclusively and holds it on return.
#define CSC_ACQUIRE(...) \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

/// As CSC_ACQUIRE, for shared (reader) access.
#define CSC_ACQUIRE_SHARED(...) \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

/// The function releases the capability (exclusive or shared).
#define CSC_RELEASE(...) \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

/// The function releases a capability held shared.
#define CSC_RELEASE_SHARED(...) \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns `ret`.
#define CSC_TRY_ACQUIRE(ret, ...) \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(ret, __VA_ARGS__))

/// The function acquires the capability shared iff it returns `ret`.
#define CSC_TRY_ACQUIRE_SHARED(ret, ...) \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(       \
      try_acquire_shared_capability(ret, __VA_ARGS__))

/// The caller must NOT hold the capability: the function (or something it
/// calls) acquires it itself, so holding it at the call site would
/// self-deadlock on a non-reentrant mutex.
#define CSC_EXCLUDES(...) \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Documents the acquisition order between two capabilities (deadlock
/// detection under -Wthread-safety-beta).
#define CSC_ACQUIRED_BEFORE(...) \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define CSC_ACQUIRED_AFTER(...) \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// The function returns a reference to the given capability (accessor
/// pattern).
#define CSC_RETURN_CAPABILITY(x) \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Asserts at runtime that the calling thread holds the capability, and
/// tells the analysis to assume it from here on.
#define CSC_ASSERT_CAPABILITY(x) \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment justifying it; tools/lint_invariants.py budgets these.
#define CSC_NO_THREAD_SAFETY_ANALYSIS \
  CSC_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

#endif  // CSC_UTIL_THREAD_ANNOTATIONS_H_
