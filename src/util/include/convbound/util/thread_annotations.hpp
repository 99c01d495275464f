#pragma once

// Portable macros over Clang's thread-safety-analysis attributes
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Under clang the
// macros expand to the real attributes and `-Wthread-safety
// -Werror=thread-safety` (CMake option CONVBOUND_THREAD_SAFETY, turned on by
// the CI static-analysis job) makes a dropped lock a *compile error*; under
// any other compiler they expand to nothing, so gcc builds are unaffected.
//
// Conventions (see docs/concurrency.md for the full lock hierarchy):
//   - Every mutex-protected member is CB_GUARDED_BY(its mutex).
//   - Every `*_locked` helper that assumes a held lock is CB_REQUIRES(it).
//   - Lock-free fast paths (reservation atomics, the eventcount version
//     counter, tracing's gate atomic) carry NO capability — each exempt
//     site has a header comment stating why the protocol is safe without
//     one, so the analysis encodes the real design rather than silencing it.
//   - Raw std::mutex is never locked directly outside convbound/util/mutex.hpp
//     (enforced by tools/lint_convbound.py): the analysis only sees locks
//     taken through the annotated Mutex/MutexLock/UniqueLock wrappers.

#if defined(__clang__)
#define CB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define CB_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

// A type that acts as a lock/capability (e.g. convbound::Mutex).
#define CB_CAPABILITY(name) CB_THREAD_ANNOTATION(capability(name))

// An RAII type that acquires a capability in its constructor and releases it
// in its destructor (MutexLock, UniqueLock).
#define CB_SCOPED_CAPABILITY CB_THREAD_ANNOTATION(scoped_lockable)

// Data members readable/writable only while holding the named mutex.
#define CB_GUARDED_BY(x) CB_THREAD_ANNOTATION(guarded_by(x))

// Pointer members whose *pointee* is protected by the named mutex (the
// pointer itself may additionally be CB_GUARDED_BY a mutex).
#define CB_PT_GUARDED_BY(x) CB_THREAD_ANNOTATION(pt_guarded_by(x))

// Functions that acquire/release a capability and hold it past return /
// expect it held on entry.
#define CB_ACQUIRE(...) CB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define CB_RELEASE(...) CB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define CB_TRY_ACQUIRE(...) \
  CB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// Functions the caller must invoke with the capability already held
// (the `*_locked` private-helper convention).
//
// The negative compile test (tests/static_analysis/annotations_negative_tu.cpp,
// driven by a CMake try_compile pair) predefines CONVBOUND_TSA_STRIP_REQUIRES
// and recompiles the RequestQueue shard implementation: with CB_REQUIRES
// erased, the guarded-member accesses inside its `*_locked` helpers
// (expire_locked, insert_locked, remove_locked) MUST fail the build under
// -Werror=thread-safety — proving the wall cannot silently rot.
#if defined(CONVBOUND_TSA_STRIP_REQUIRES)
#define CB_REQUIRES(...)  // deliberately erased by the negative compile test
#else
#define CB_REQUIRES(...) \
  CB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#endif

// Functions that must be called WITHOUT the capability held (deadlock
// documentation: e.g. a notifier callback that re-enters the queue).
#define CB_EXCLUDES(...) CB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Lock-ordering documentation. Clang only checks these under the optional
// -Wthread-safety-beta group; they still machine-document the hierarchy
// (shard.mu_ before wait_mu_, etc.) at the declaration site.
#define CB_ACQUIRED_BEFORE(...) \
  CB_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define CB_ACQUIRED_AFTER(...) \
  CB_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// A function that returns a reference to the capability guarding its result.
#define CB_RETURN_CAPABILITY(x) CB_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch for protocols the analysis cannot express. Every use MUST
// carry a comment with the informal proof (docs/concurrency.md collects
// them); bare uses are a review smell.
#define CB_NO_THREAD_SAFETY_ANALYSIS \
  CB_THREAD_ANNOTATION(no_thread_safety_analysis)
