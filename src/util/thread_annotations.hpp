// Clang Thread Safety Analysis annotations + annotated mutex wrappers.
//
// The serving stack's lock/epoch discipline (DESIGN.md §11 capability map)
// is proven *statically* on every Clang build: `-Wthread-safety
// -Wthread-safety-beta -Werror=thread-safety-analysis` (the `thread-safety`
// preset and CI job) rejects any guarded member touched without its mutex,
// any TC_REQUIRES function called lock-free, and any lock leaked out of a
// scope. On non-Clang compilers every macro expands to nothing and the
// wrappers degrade to their std counterparts, so the annotations cost
// nothing where the analysis cannot run.
//
// Vocabulary (mirrors the canonical mutex.h from the Clang TSA docs):
//   TC_CAPABILITY(name)      class is a capability (a mutex)
//   TC_GUARDED_BY(mu)        member may only be touched while mu is held
//   TC_PT_GUARDED_BY(mu)     pointee may only be touched while mu is held
//   TC_REQUIRES(mu...)       caller must already hold mu (exclusive)
//   TC_REQUIRES_SHARED(mu..) caller must hold mu at least shared
//   TC_ACQUIRE(mu...)        function acquires mu and does not release it
//   TC_RELEASE(mu...)        function releases mu
//   TC_EXCLUDES(mu...)       caller must NOT hold mu (deadlock guard)
//   TC_NO_THREAD_SAFETY_ANALYSIS  opt-out, must carry a justification
//
// Every TC_NO_THREAD_SAFETY_ANALYSIS in the tree documents *why* the
// analysis cannot see the invariant that makes the code safe; a bare
// opt-out is a review error.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && !defined(SWIG)
#define TC_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define TC_THREAD_ANNOTATION_(x)
#endif

#define TC_CAPABILITY(x) TC_THREAD_ANNOTATION_(capability(x))
#define TC_SCOPED_CAPABILITY TC_THREAD_ANNOTATION_(scoped_lockable)
#define TC_GUARDED_BY(x) TC_THREAD_ANNOTATION_(guarded_by(x))
#define TC_PT_GUARDED_BY(x) TC_THREAD_ANNOTATION_(pt_guarded_by(x))
#define TC_ACQUIRED_BEFORE(...) TC_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define TC_ACQUIRED_AFTER(...) TC_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define TC_REQUIRES(...) TC_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define TC_REQUIRES_SHARED(...) \
  TC_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define TC_ACQUIRE(...) TC_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define TC_ACQUIRE_SHARED(...) \
  TC_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define TC_RELEASE(...) TC_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define TC_RELEASE_SHARED(...) \
  TC_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define TC_TRY_ACQUIRE(...) \
  TC_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define TC_EXCLUDES(...) TC_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define TC_ASSERT_CAPABILITY(x) TC_THREAD_ANNOTATION_(assert_capability(x))
#define TC_RETURN_CAPABILITY(x) TC_THREAD_ANNOTATION_(lock_returned(x))
#define TC_NO_THREAD_SAFETY_ANALYSIS \
  TC_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace tc::util {

class CondVar;

/// std::mutex with the capability attribute, so TC_GUARDED_BY(mu_) and
/// friends have something to name. Satisfies BasicLockable.
class TC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() TC_ACQUIRE() { mu_.lock(); }
  void unlock() TC_RELEASE() { mu_.unlock(); }
  bool try_lock() TC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// std::shared_mutex with the capability attribute: exclusive writers,
/// shared readers.
class TC_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() TC_ACQUIRE() { mu_.lock(); }
  void unlock() TC_RELEASE() { mu_.unlock(); }
  bool try_lock() TC_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void lock_shared() TC_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() TC_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool try_lock_shared() TC_TRY_ACQUIRE(true) { return mu_.try_lock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// Scoped exclusive lock on a Mutex (the annotated lock_guard).
class TC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TC_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() TC_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped exclusive lock on a SharedMutex (writer side).
class TC_SCOPED_CAPABILITY SharedMutexLock {
 public:
  explicit SharedMutexLock(SharedMutex& mu) TC_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~SharedMutexLock() TC_RELEASE() { mu_.unlock(); }

  SharedMutexLock(const SharedMutexLock&) = delete;
  SharedMutexLock& operator=(const SharedMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped shared lock on a SharedMutex (reader side).
class TC_SCOPED_CAPABILITY SharedReaderLock {
 public:
  explicit SharedReaderLock(SharedMutex& mu) TC_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~SharedReaderLock() TC_RELEASE() { mu_.unlock_shared(); }

  SharedReaderLock(const SharedReaderLock&) = delete;
  SharedReaderLock& operator=(const SharedReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to util::Mutex. wait() is annotated
/// TC_REQUIRES(mu): the analysis treats the wait as "lock stays held",
/// which matches the caller-visible contract (wait returns with the lock
/// re-acquired). Callers loop on their predicate as usual.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and re-acquires `mu` before
  /// returning. All concurrent waiters must pass the same mutex.
  void wait(Mutex& mu) TC_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the scoped caller still owns the re-acquired lock
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace tc::util
