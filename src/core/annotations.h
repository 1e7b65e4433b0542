#pragma once

#include <condition_variable>
#include <mutex>

/// Clang thread-safety annotations (DESIGN.md §14) and the annotated
/// synchronization vocabulary built on them.
///
/// The repo's concurrency contract — bit-identical results at any thread
/// count — leans on a small number of mutex-guarded seams (thread pool job
/// state, EdgeArena slab table, the Girg vertex-record cache).
/// TSan vets those seams at runtime on the paths the tests happen to drive;
/// the annotations below move the same discipline to compile time: clang's
/// -Wthread-safety proves every access to a GIRG_GUARDED_BY member happens
/// with its capability held, on every path, in every build.
///
/// libstdc++'s std::mutex / std::lock_guard carry no annotations, so raw
/// standard types are invisible to the analysis. Library code therefore uses
/// the annotated wrappers below (Mutex / MutexLock / UniqueLock / CondVar)
/// instead of the std types; girg-lint rule R10 (thread-safety) enforces
/// this on gcc builds too, so the discipline cannot silently rot when the
/// analysis is not running.
///
/// On non-clang compilers every macro expands to nothing and the wrappers
/// are zero-cost shims over the std types.

#if defined(__clang__) && !defined(SWIG)
#define GIRG_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GIRG_THREAD_ANNOTATION(x)
#endif

/// Marks a class as a capability (lock) the analysis can track.
#define GIRG_CAPABILITY(x) GIRG_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define GIRG_SCOPED_CAPABILITY GIRG_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only with the capability held.
#define GIRG_GUARDED_BY(x) GIRG_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by the capability.
#define GIRG_PT_GUARDED_BY(x) GIRG_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability held on entry (and does not release it).
#define GIRG_REQUIRES(...) GIRG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define GIRG_ACQUIRE(...) GIRG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases a held capability.
#define GIRG_RELEASE(...) GIRG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns the given value.
#define GIRG_TRY_ACQUIRE(...) GIRG_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (non-reentrancy contract).
#define GIRG_EXCLUDES(...) GIRG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Asserts (at analysis level) that the capability is held here.
#define GIRG_ASSERT_CAPABILITY(x) GIRG_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the named capability.
#define GIRG_RETURN_CAPABILITY(x) GIRG_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: function body is excluded from the analysis. Every use
/// must explain, in a comment, which protocol replaces the lock.
#define GIRG_NO_THREAD_SAFETY_ANALYSIS GIRG_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace smallworld {

class UniqueLock;

/// Annotated std::mutex. Same semantics, same cost; exists so the analysis
/// (and girg-lint R10) can see acquisitions and releases.
class GIRG_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() GIRG_ACQUIRE() { m_.lock(); }
    void unlock() GIRG_RELEASE() { m_.unlock(); }
    [[nodiscard]] bool try_lock() GIRG_TRY_ACQUIRE(true) { return m_.try_lock(); }

private:
    friend class UniqueLock;
    // LINT-ALLOW(thread-safety): this is the annotated wrapper itself
    std::mutex m_;
};

/// RAII scoped lock over a Mutex — the annotated std::lock_guard.
class GIRG_SCOPED_CAPABILITY MutexLock {
public:
    explicit MutexLock(Mutex& mutex) GIRG_ACQUIRE(mutex) : mutex_(mutex) { mutex_.lock(); }
    ~MutexLock() GIRG_RELEASE() { mutex_.unlock(); }
    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

private:
    Mutex& mutex_;
};

/// RAII lock that condition variables can wait on — the annotated
/// std::unique_lock. Held for its whole scope from the analysis's view;
/// CondVar::wait releases and reacquires the underlying mutex inside one
/// call, so "held" is true again at every point the analysis can observe.
class GIRG_SCOPED_CAPABILITY UniqueLock {
public:
    explicit UniqueLock(Mutex& mutex) GIRG_ACQUIRE(mutex) : lock_(mutex.m_) {}
    ~UniqueLock() GIRG_RELEASE() {}  // lock_'s destructor performs the unlock
    UniqueLock(const UniqueLock&) = delete;
    UniqueLock& operator=(const UniqueLock&) = delete;

private:
    friend class CondVar;
    std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with UniqueLock. Waits must be wrapped in an
/// explicit `while (!predicate) cv.wait(lock);` loop — predicate lambdas
/// passed into std::condition_variable::wait are analyzed as separate
/// functions and would lose the capability, so the wrapper does not offer
/// the predicate overload at all.
class CondVar {
public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

    /// Atomically releases `lock`'s mutex and blocks; the mutex is held
    /// again when the call returns. Spurious wakeups happen — loop.
    void wait(UniqueLock& lock) { cv_.wait(lock.lock_); }

private:
    // LINT-ALLOW(thread-safety): this is the annotated wrapper itself
    std::condition_variable cv_;
};

}  // namespace smallworld
