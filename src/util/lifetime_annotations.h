#ifndef CSC_UTIL_LIFETIME_ANNOTATIONS_H_
#define CSC_UTIL_LIFETIME_ANNOTATIONS_H_

/// Portable Clang lifetime annotations for the zero-copy storage layer.
///
/// The serving stack's hottest property is that label payloads are *views*:
/// `LabelArena` runs, `FrozenIndex` arenas, and whole sharded deployments
/// serve straight out of one read-only `IndexFile` mapping, kept alive only
/// by `shared_ptr` keep-alive handles threaded through `ParseView` /
/// `LoadView` / `LoadFromMapping`. These macros turn
/// the resulting lifetime discipline — "no view may outlive what it views"
/// — into a compile-time contract on Clang (`-Wdangling`, `-Wdangling-gsl`,
/// `-Wreturn-stack-address`, promoted to errors in the static-analysis CI
/// job) and into no-ops everywhere else, mirroring
/// util/thread_annotations.h. The AST-level checker
/// (tools/check_contracts.py) additionally enforces the project rules the
/// stock analysis cannot see; see README "Lifetime contracts".
///
/// Conventions used across the codebase:
///   - a function whose result points into `this` or into a parameter is
///     CSC_LIFETIME_BOUND on that entity (the implicit object parameter or
///     the named parameter respectively);
///   - a type that is a non-owning window into someone else's storage
///     (LabelArena::Cursor, ShardedPayloadView) is CSC_VIEW_TYPE; holding
///     one obliges the holder to keep the owner alive;
///   - a type that owns storage that views point into (IndexFile) is
///     CSC_OWNER_TYPE, so Clang can flag a view initialized from an
///     owner temporary;
///   - APIs that *retain* the buffer through an explicit
///     `std::shared_ptr<const void> keep_alive` parameter (ParseView,
///     LoadView, DeserializeFlatView) are deliberately NOT
///     CSC_LIFETIME_BOUND on the data pointer: the result keeps the buffer
///     alive itself, so binding it to a longer-lived name is correct, not
///     dangling. Each such site carries a comment saying so.

#if defined(__clang__) && !defined(SWIG)
#define CSC_LIFETIME_ANNOTATION_ATTRIBUTE__(x) [[x]]
#else
#define CSC_LIFETIME_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

/// The annotated parameter (or, written after a member function's
/// cv-qualifiers, the implicit `this`) must outlive the function's result:
/// the result points into it. Clang then diagnoses binding the result of a
/// call on a temporary to anything that outlives the full expression
/// (-Wdangling / -Wreturn-stack-address).
#define CSC_LIFETIME_BOUND CSC_LIFETIME_ANNOTATION_ATTRIBUTE__(clang::lifetimebound)

/// Declares a class to be a non-owning view ([[gsl::Pointer]]): its objects
/// reference storage owned elsewhere and dangle when that storage dies.
/// Written between `class`/`struct` and the type name. Seeds the
/// view-type registry tools/check_contracts.py enforces rule 1 and 2 over.
#define CSC_VIEW_TYPE CSC_LIFETIME_ANNOTATION_ATTRIBUTE__(gsl::Pointer)

/// Declares a class to be an owner ([[gsl::Owner]]): view types initialized
/// from one of its temporaries are diagnosed by -Wdangling-gsl.
#define CSC_OWNER_TYPE CSC_LIFETIME_ANNOTATION_ATTRIBUTE__(gsl::Owner)

#endif  // CSC_UTIL_LIFETIME_ANNOTATIONS_H_
