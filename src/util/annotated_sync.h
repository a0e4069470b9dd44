// Annotated synchronization primitives — the static half of the lock
// discipline.
//
// versa::Mutex / versa::RecursiveMutex wrap the std primitives and carry
// Clang Thread Safety Analysis capability attributes, so a Clang build
// with -Wthread-safety -Werror=thread-safety machine-checks that every
// GUARDED_BY field is only touched with its lock held and every REQUIRES
// method is only called under the right capability. Under GCC the
// attribute macros expand to nothing and the wrappers degrade to plain
// std mutexes. Both compilers keep the runtime lock-order checker
// (src/util/lock_order.h): each wrapper names its LockClass and every
// acquisition is rank-validated in debug builds, so dynamic tests
// corroborate what the static analysis proves.
//
// Usage:
//   versa::Mutex mu_{lock_order::kLockRankAccount};
//   int shared_ VERSA_GUARDED_BY(mu_);
//   void poke() { versa::LockGuard lock(mu_); ++shared_; }
//   Duration busy() const VERSA_REQUIRES(mu_);
//
// Condition variables: std::condition_variable_any waits take
// UniqueLock::native(); from the analysis' point of view the capability
// stays held across the wait (it is released and re-acquired inside),
// which matches how every caller reasons about predicates.
#pragma once

#include <mutex>
#include <optional>

#include "util/lock_order.h"

// --- Clang Thread Safety Analysis attribute macros ----------------------
#if defined(__clang__) && !defined(SWIG)
#define VERSA_TSA_ATTR__(x) __attribute__((x))
#else
#define VERSA_TSA_ATTR__(x)
#endif

#define VERSA_CAPABILITY(x) VERSA_TSA_ATTR__(capability(x))
#define VERSA_SCOPED_CAPABILITY VERSA_TSA_ATTR__(scoped_lockable)
#define VERSA_GUARDED_BY(x) VERSA_TSA_ATTR__(guarded_by(x))
#define VERSA_PT_GUARDED_BY(x) VERSA_TSA_ATTR__(pt_guarded_by(x))
#define VERSA_ACQUIRE(...) VERSA_TSA_ATTR__(acquire_capability(__VA_ARGS__))
#define VERSA_RELEASE(...) VERSA_TSA_ATTR__(release_capability(__VA_ARGS__))
#define VERSA_TRY_ACQUIRE(...) \
  VERSA_TSA_ATTR__(try_acquire_capability(__VA_ARGS__))
#define VERSA_REQUIRES(...) VERSA_TSA_ATTR__(requires_capability(__VA_ARGS__))
#define VERSA_EXCLUDES(...) VERSA_TSA_ATTR__(locks_excluded(__VA_ARGS__))
#define VERSA_ASSERT_CAPABILITY(x) VERSA_TSA_ATTR__(assert_capability(x))
#define VERSA_RETURN_CAPABILITY(x) VERSA_TSA_ATTR__(lock_returned(x))
#define VERSA_NO_THREAD_SAFETY_ANALYSIS \
  VERSA_TSA_ATTR__(no_thread_safety_analysis)

namespace versa {

/// Non-recursive mutex with a named lock class.
class VERSA_CAPABILITY("mutex") Mutex {
 public:
  using native_type = std::mutex;

  explicit Mutex(const lock_order::LockClass& cls) : cls_(&cls) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() VERSA_ACQUIRE() {
    lock_order::on_acquire(*cls_);
    m_.lock();
  }
  void unlock() VERSA_RELEASE() {
    m_.unlock();
    lock_order::on_release(*cls_);
  }

  /// Dynamic stand-in where the static analysis loses track (callback
  /// boundaries): validates against the calling thread's held-lock stack
  /// in enforced builds and tells the analysis the capability is held
  /// from here on.
  void assert_held() const VERSA_ASSERT_CAPABILITY(this) {
    lock_order::assert_holds(*cls_);
  }

  const lock_order::LockClass& lock_class() const { return *cls_; }
  native_type& native_handle() { return m_; }

 private:
  native_type m_;
  const lock_order::LockClass* cls_;
};

/// Recursive mutex with a named (reentrant) lock class. Kept for the one
/// place re-entrancy is inherent: task bodies calling back into the
/// runtime's public API while the sim event loop holds the runtime lock.
class VERSA_CAPABILITY("mutex") RecursiveMutex {
 public:
  using native_type = std::recursive_mutex;

  explicit RecursiveMutex(const lock_order::LockClass& cls) : cls_(&cls) {}
  RecursiveMutex(const RecursiveMutex&) = delete;
  RecursiveMutex& operator=(const RecursiveMutex&) = delete;

  void lock() VERSA_ACQUIRE() {
    lock_order::on_acquire(*cls_);
    m_.lock();
  }
  void unlock() VERSA_RELEASE() {
    m_.unlock();
    lock_order::on_release(*cls_);
  }

  void assert_held() const VERSA_ASSERT_CAPABILITY(this) {
    lock_order::assert_holds(*cls_);
  }

  const lock_order::LockClass& lock_class() const { return *cls_; }
  native_type& native_handle() { return m_; }

 private:
  native_type m_;
  const lock_order::LockClass* cls_;
};

/// Scoped lock (std::lock_guard analogue) for either wrapper.
template <typename MutexT>
class VERSA_SCOPED_CAPABILITY BasicLockGuard {
 public:
  explicit BasicLockGuard(MutexT& m) VERSA_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~BasicLockGuard() VERSA_RELEASE() { m_.unlock(); }

  BasicLockGuard(const BasicLockGuard&) = delete;
  BasicLockGuard& operator=(const BasicLockGuard&) = delete;

 private:
  MutexT& m_;
};

/// Scoped lock that exposes the underlying std::unique_lock for condition
/// variable waits. The wait releases and re-acquires the native mutex
/// below the analysis' radar — the capability is held again by the time
/// the wait returns, so treating it as continuously held is sound for
/// every caller-visible program point. The lock-order checker likewise
/// keeps the entry on the held stack across the wait (nothing else is
/// acquired by a blocked thread).
template <typename MutexT>
class VERSA_SCOPED_CAPABILITY BasicUniqueLock {
 public:
  explicit BasicUniqueLock(MutexT& m) VERSA_ACQUIRE(m) : m_(m) {
    lock_order::on_acquire(m_.lock_class());
    native_.emplace(m_.native_handle());
  }
  ~BasicUniqueLock() VERSA_RELEASE() {
    native_.reset();
    lock_order::on_release(m_.lock_class());
  }

  BasicUniqueLock(const BasicUniqueLock&) = delete;
  BasicUniqueLock& operator=(const BasicUniqueLock&) = delete;

  std::unique_lock<typename MutexT::native_type>& native() { return *native_; }

 private:
  MutexT& m_;
  std::optional<std::unique_lock<typename MutexT::native_type>> native_;
};

using LockGuard = BasicLockGuard<Mutex>;
using RecursiveLockGuard = BasicLockGuard<RecursiveMutex>;
using UniqueLock = BasicUniqueLock<Mutex>;
using RecursiveUniqueLock = BasicUniqueLock<RecursiveMutex>;

}  // namespace versa
