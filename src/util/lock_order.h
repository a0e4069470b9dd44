// Runtime lock-order validation — the dynamic half of the lock discipline
// (the static half is the Clang Thread Safety Analysis wired up through
// src/util/annotated_sync.h; DESIGN.md §9 documents both).
//
// Every versa::Mutex / versa::RecursiveMutex belongs to a LockClass with a
// documented rank. Acquisitions must happen in strictly increasing rank
// order within a thread; the checker keeps a thread-local stack of held
// classes and reports an inversion the moment a thread acquires a lock
// whose rank is not above the rank it already holds (re-entry of the same
// class is allowed only for classes marked reentrant, i.e. recursive
// mutexes). A would-be deadlock is therefore reported on the *first*
// inverted acquisition, with both lock classes named — it does not need
// the second thread of the cycle to actually block.
//
// The checker is enabled by default in debug builds (NDEBUG unset),
// disabled in release builds, and either default can be overridden with
// the VERSA_LOCK_ORDER environment variable ("1"/"0") or set_enforced().
// When disabled, the per-acquisition cost is one relaxed atomic load.
#pragma once

#include <cstddef>

namespace versa::lock_order {

/// One rank class of locks. Instances are expected to be static-storage
/// (the checker keeps raw pointers). `reentrant` permits nested
/// re-acquisition of the same class by one thread (recursive mutexes).
struct LockClass {
  const char* name;
  int rank;
  bool reentrant = false;
};

// --- the repo's lock hierarchy, outermost (lowest rank) first ----------
// See DESIGN.md §9 for what each class guards. Keep ranks spaced so a new
// class can slot in between without renumbering.
extern const LockClass kLockRankTenant;       ///< rank 4: service TenantRegistry
extern const LockClass kLockRankServiceGraph; ///< rank 6: VersaService graph table
extern const LockClass kLockRankProfileCache; ///< rank 8: SharedProfileCache
extern const LockClass kLockRankRuntime;      ///< rank 10: Runtime::mutex_
extern const LockClass kLockRankSanitizerShard; ///< rank 11: AccessSanitizer shadow-map shards
extern const LockClass kLockRankSanitizerClock; ///< rank 12: AccessSanitizer clock table
extern const LockClass kLockRankData;         ///< rank 13: DataDirectory / TransferEngine state
extern const LockClass kLockRankSanitizerState; ///< rank 15: AccessSanitizer witness/violation state
extern const LockClass kLockRankAnalyzer;     ///< rank 16: DependencyAnalyzer interval maps
extern const LockClass kLockRankAccount;      ///< rank 20: QueueScheduler account/index
extern const LockClass kLockRankQueue;        ///< rank 30: per-worker queue shards
extern const LockClass kLockRankTrace;        ///< rank 40: DecisionTrace ring
extern const LockClass kLockRankExecWake;     ///< rank 50: ThreadExecutor wake epoch

/// Record an acquisition of `cls` by the calling thread, reporting a
/// violation first if it inverts the documented order. Called by the
/// annotated_sync wrappers immediately before the underlying lock.
void on_acquire(const LockClass& cls);

/// Record a release (pops the innermost held entry of `cls`).
void on_release(const LockClass& cls);

/// Depth of the calling thread's held-lock stack (tests).
std::size_t held_depth();

/// True if the calling thread's stack contains `cls` (assert_held support).
bool holds(const LockClass& cls);

/// Report (through the violation handler) if the calling thread does not
/// hold `cls`. Dynamic backing for the wrappers' assert_held(): used where
/// the static analysis cannot follow a capability across a callback
/// boundary. No-op when the checker is disabled.
void assert_holds(const LockClass& cls);

bool enforced();
void set_enforced(bool on);

/// Violation hook. The default handler prints the report to stderr and
/// aborts. Tests install a capturing handler (which may return — the
/// acquisition then proceeds; an inverted order is only a *potential*
/// deadlock, so execution can continue in a single-threaded test).
using ViolationHandler = void (*)(const char* report);
ViolationHandler set_violation_handler(ViolationHandler handler);

}  // namespace versa::lock_order
