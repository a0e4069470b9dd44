#include "util/lock_order.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace versa::lock_order {

const LockClass kLockRankTenant = {"service.tenant", 4};
const LockClass kLockRankServiceGraph = {"service.graph", 6};
const LockClass kLockRankProfileCache = {"service.profile", 8};
const LockClass kLockRankRuntime = {"runtime", 10, /*reentrant=*/true};
const LockClass kLockRankSanitizerShard = {"sanitizer.shard", 11};
const LockClass kLockRankSanitizerClock = {"sanitizer.clock", 12};
const LockClass kLockRankData = {"data", 13};
const LockClass kLockRankSanitizerState = {"sanitizer.state", 15};
const LockClass kLockRankAnalyzer = {"analyzer", 16};
const LockClass kLockRankAccount = {"sched.account", 20};
const LockClass kLockRankQueue = {"sched.queue", 30};
const LockClass kLockRankTrace = {"trace", 40};
const LockClass kLockRankExecWake = {"exec.wake", 50};

namespace {

/// Held-lock stack of the calling thread, innermost last.
thread_local std::vector<const LockClass*> tls_held;

bool default_enforced() {
  if (const char* env = std::getenv("VERSA_LOCK_ORDER")) {
    return env[0] != '0';
  }
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

std::atomic<bool> g_enforced{default_enforced()};

void abort_handler(const char* report) {
  std::fprintf(stderr, "%s\n", report);
  std::abort();
}

std::atomic<ViolationHandler> g_handler{&abort_handler};

void report_violation(const LockClass& acquiring, const LockClass& held) {
  char report[512];
  int n = std::snprintf(
      report, sizeof(report),
      "versa: lock-order inversion: acquiring '%s' (rank %d) while holding "
      "'%s' (rank %d); documented order is strictly increasing rank. held "
      "stack:",
      acquiring.name, acquiring.rank, held.name, held.rank);
  for (const LockClass* cls : tls_held) {
    if (n < 0 || static_cast<std::size_t>(n) >= sizeof(report)) break;
    n += std::snprintf(report + n, sizeof(report) - static_cast<std::size_t>(n),
                       " %s(%d)", cls->name, cls->rank);
  }
  g_handler.load(std::memory_order_acquire)(report);
}

}  // namespace

void on_acquire(const LockClass& cls) {
  if (!g_enforced.load(std::memory_order_relaxed)) return;
  if (!tls_held.empty()) {
    const LockClass& top = *tls_held.back();
    const bool reentry = &top == &cls && cls.reentrant;
    if (!reentry && top.rank >= cls.rank) {
      report_violation(cls, top);
    }
  }
  tls_held.push_back(&cls);
}

void on_release(const LockClass& cls) {
  if (!g_enforced.load(std::memory_order_relaxed)) return;
  // Pop the innermost entry of this class. Out-of-order releases are legal
  // with scoped guards of different classes, hence the backwards search.
  for (auto it = tls_held.rbegin(); it != tls_held.rend(); ++it) {
    if (*it == &cls) {
      tls_held.erase(std::next(it).base());
      return;
    }
  }
  // Releasing a lock the stack never saw: the checker was toggled on
  // mid-flight. Ignore rather than misreport.
}

std::size_t held_depth() { return tls_held.size(); }

bool holds(const LockClass& cls) {
  for (const LockClass* held : tls_held) {
    if (held == &cls) return true;
  }
  return false;
}

void assert_holds(const LockClass& cls) {
  if (!g_enforced.load(std::memory_order_relaxed)) return;
  if (holds(cls)) return;
  char report[256];
  std::snprintf(report, sizeof(report),
                "versa: lock assertion failed: '%s' (rank %d) is not held by "
                "the calling thread (held depth %zu)",
                cls.name, cls.rank, tls_held.size());
  g_handler.load(std::memory_order_acquire)(report);
}

bool enforced() { return g_enforced.load(std::memory_order_relaxed); }

void set_enforced(bool on) {
  g_enforced.store(on, std::memory_order_relaxed);
}

ViolationHandler set_violation_handler(ViolationHandler handler) {
  return g_handler.exchange(handler ? handler : &abort_handler,
                            std::memory_order_acq_rel);
}

}  // namespace versa::lock_order
