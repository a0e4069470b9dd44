#include "util/lock_order.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <vector>

namespace versa::lock_order {

const LockClass kLockRankService = {"service", 4};
const LockClass kLockRankRuntime = {"runtime", 10, /*reentrant=*/true};
const LockClass kLockRankData = {"data", 13};
const LockClass kLockRankAccount = {"sched.account", 20};
const LockClass kLockRankQueue = {"sched.queue", 30};
const LockClass kLockRankExecWake = {"exec.wake", 50};

namespace {

/// Held-lock stack of the calling thread, innermost last.
thread_local std::vector<const LockClass*> tls_held;

/// Per-class acquisition counts of the calling thread.
thread_local std::unordered_map<const LockClass*, std::uint64_t> tls_acquired;

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

void report_uncovered(const LockClass& acquiring, const LockClass& cover) {
  char report[256];
  std::snprintf(report, sizeof(report),
                "versa: covered lock '%s' (rank %d) acquired without its "
                "cover '%s' (rank %d) held by the calling thread (held "
                "depth %zu)",
                acquiring.name, acquiring.rank, cover.name, cover.rank,
                tls_held.size());
  g_handler.load(std::memory_order_acquire)(report);
}

}  // namespace

namespace detail {

std::atomic<bool> g_enforced{default_enforced()};

void on_acquire_enforced(const LockClass& cls, const LockClass* cover) {
  if (!tls_held.empty()) {
    const LockClass& top = *tls_held.back();
    const bool reentry = &top == &cls && cls.reentrant;
    if (!reentry && top.rank >= cls.rank) {
      report_violation(cls, top);
    }
  }
  if (cover != nullptr && !holds(*cover)) report_uncovered(cls, *cover);
  tls_held.push_back(&cls);
  ++tls_acquired[&cls];
}

void on_release_enforced(const LockClass& cls) {
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

}  // namespace detail

std::size_t held_depth() { return tls_held.size(); }

std::uint64_t acquisitions(const LockClass& cls) {
  const auto it = tls_acquired.find(&cls);
  return it == tls_acquired.end() ? 0 : it->second;
}

bool holds(const LockClass& cls) {
  for (const LockClass* held : tls_held) {
    if (held == &cls) return true;
  }
  return false;
}

void assert_holds(const LockClass& cls) {
  if (!detail::g_enforced.load(std::memory_order_relaxed)) return;
  if (holds(cls)) return;
  char report[256];
  std::snprintf(report, sizeof(report),
                "versa: lock assertion failed: '%s' (rank %d) is not held by "
                "the calling thread (held depth %zu)",
                cls.name, cls.rank, tls_held.size());
  g_handler.load(std::memory_order_acquire)(report);
}

bool enforced() {
  return detail::g_enforced.load(std::memory_order_relaxed);
}

void set_enforced(bool on) {
  detail::g_enforced.store(on, std::memory_order_relaxed);
}

ViolationHandler set_violation_handler(ViolationHandler handler) {
  return g_handler.exchange(handler ? handler : &abort_handler,
                            std::memory_order_acq_rel);
}

}  // namespace versa::lock_order
