// Clang thread-safety-analysis annotation macros (no-ops elsewhere).
//
// These turn the repo's locking discipline into compile-time-checked
// invariants: a member declared GUARDED_BY(mu_) cannot be touched
// without holding mu_, a *Locked() helper declared REQUIRES(mu_)
// cannot be called without it, and the build fails (Clang,
// -Werror=thread-safety — see CMakeLists.txt) instead of waiting for a
// TSAN interleaving to hit the bug at runtime.
//
// The annotations only bind to lock types that are themselves
// annotated, so locking goes through bullion::Mutex / MutexLock /
// CondVar (common/mutex.h), not raw std::mutex — tools/lint.py
// enforces that split. Macro names follow the Clang/Abseil convention
// so the analysis documentation applies verbatim:
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#pragma once

#if defined(__clang__)
#define BULLION_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define BULLION_THREAD_ANNOTATION__(x)  // no-op outside Clang
#endif

/// Declares a type to be a lock ("capability"). `x` is a description
/// string used in diagnostics, conventionally "mutex".
#define CAPABILITY(x) BULLION_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII type whose constructor acquires and destructor
/// releases a capability.
#define SCOPED_CAPABILITY BULLION_THREAD_ANNOTATION__(scoped_lockable)

/// Data member readable/writable only while holding the given lock.
#define GUARDED_BY(x) BULLION_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given lock (the
/// pointer itself may be read freely).
#define PT_GUARDED_BY(x) BULLION_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function callable only while holding the listed locks; they remain
/// held on return. The REQUIRES form for the *Locked() helper idiom.
#define REQUIRES(...) \
  BULLION_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Shared (reader) flavor of REQUIRES.
#define REQUIRES_SHARED(...) \
  BULLION_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function that acquires the listed locks and does not release them.
#define ACQUIRE(...) \
  BULLION_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function that releases locks the caller held on entry.
#define RELEASE(...) \
  BULLION_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function that acquires the lock when it returns `b` (Mutex::try_lock).
#define TRY_ACQUIRE(b, ...) \
  BULLION_THREAD_ANNOTATION__(try_acquire_capability(b, __VA_ARGS__))

/// Function that must NOT be called while holding the listed locks
/// (it acquires them itself — the deadlock guard).
#define EXCLUDES(...) BULLION_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Runtime-checked assertion that the capability is already held
/// (Mutex::AssertHeld): tells the analysis without acquiring.
#define ASSERT_CAPABILITY(x) BULLION_THREAD_ANNOTATION__(assert_capability(x))

/// Function returning a reference to the lock guarding its result.
#define RETURN_CAPABILITY(x) BULLION_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: disables analysis for one function. The tree has no
/// use of it, and the static-analysis CI job fails on any use in a
/// src/ source file.
#define NO_THREAD_SAFETY_ANALYSIS \
  BULLION_THREAD_ANNOTATION__(no_thread_safety_analysis)
