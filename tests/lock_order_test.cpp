// Tests of the runtime lock-order checker — the dynamic half of the lock
// discipline (DESIGN.md §9). Covers rank validation through the annotated
// wrappers, recursive-class re-entry, assert_held, report contents (both
// lock classes must be named), and the abort-on-inversion default handler
// via gtest death tests.
#include <gtest/gtest.h>

#include <string>

#include "util/annotated_sync.h"
#include "util/lock_order.h"

namespace versa {
namespace {

// The violation hook is a plain function pointer, so the capturing handler
// stores into file-scope state.
std::string g_captured;
void capture_report(const char* report) { g_captured = report; }

// Private rank classes: the ordering rules are tested against these so the
// tests do not move when the repo hierarchy gains a class. Static storage,
// as the checker requires.
const lock_order::LockClass kLow{"test.low", 1};
const lock_order::LockClass kHigh{"test.high", 2};
const lock_order::LockClass kHighTwin{"test.high_twin", 2};
const lock_order::LockClass kNested{"test.nested", 3, /*reentrant=*/true};

class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enforced_ = lock_order::enforced();
    lock_order::set_enforced(true);
    previous_ = lock_order::set_violation_handler(&capture_report);
    g_captured.clear();
  }
  void TearDown() override {
    lock_order::set_violation_handler(previous_);
    lock_order::set_enforced(was_enforced_);
  }

 private:
  bool was_enforced_ = false;
  lock_order::ViolationHandler previous_ = nullptr;
};

TEST_F(LockOrderTest, IncreasingRankAcquisitionIsClean) {
  Mutex low(kLow);
  Mutex high(kHigh);
  {
    LockGuard outer(low);
    EXPECT_EQ(lock_order::held_depth(), 1u);
    LockGuard inner(high);
    EXPECT_EQ(lock_order::held_depth(), 2u);
    EXPECT_TRUE(g_captured.empty()) << g_captured;
  }
  EXPECT_EQ(lock_order::held_depth(), 0u);
}

TEST_F(LockOrderTest, InversionReportNamesBothClasses) {
  Mutex low(kLow);
  Mutex high(kHigh);
  {
    LockGuard outer(high);
    LockGuard inner(low);  // rank 1 under rank 2: inversion
    ASSERT_FALSE(g_captured.empty());
    EXPECT_NE(g_captured.find("lock-order inversion"), std::string::npos)
        << g_captured;
    // Both sides of the inversion are named, with their ranks.
    EXPECT_NE(g_captured.find("'test.low' (rank 1)"), std::string::npos)
        << g_captured;
    EXPECT_NE(g_captured.find("'test.high' (rank 2)"), std::string::npos)
        << g_captured;
  }
  // The capturing handler returned, so the acquisition proceeded and the
  // guards unwound: the held stack must be balanced again.
  EXPECT_EQ(lock_order::held_depth(), 0u);
}

TEST_F(LockOrderTest, ReportIncludesHeldStack) {
  Mutex low(kLow);
  Mutex high(kHigh);
  Mutex low_peer(kLow);  // distinct mutex, same class: class-level inversion
  LockGuard a(low);
  LockGuard b(high);
  LockGuard c(low_peer);  // inversion with the full stack held
  ASSERT_FALSE(g_captured.empty());
  EXPECT_NE(g_captured.find("held stack:"), std::string::npos) << g_captured;
  EXPECT_NE(g_captured.find("test.low(1) test.high(2)"), std::string::npos)
      << g_captured;
}

TEST_F(LockOrderTest, EqualRankAcrossClassesIsAnInversion) {
  // Two classes at one rank cannot order against each other; acquiring
  // either under the other is reported.
  Mutex a(kHigh);
  Mutex b(kHighTwin);
  LockGuard outer(a);
  LockGuard inner(b);
  EXPECT_NE(g_captured.find("lock-order inversion"), std::string::npos)
      << g_captured;
}

TEST_F(LockOrderTest, ReentrantClassMayNest) {
  RecursiveMutex m(kNested);
  m.lock();  // the manual lock/unlock path participates too
  m.unlock();
  RecursiveLockGuard outer(m);
  RecursiveLockGuard inner(m);
  EXPECT_TRUE(g_captured.empty()) << g_captured;
  EXPECT_EQ(lock_order::held_depth(), 2u);
}

TEST_F(LockOrderTest, NonReentrantSelfNestingIsReported) {
  // Same class, not marked reentrant: rank is not strictly increasing.
  const lock_order::LockClass& cls = kLow;
  lock_order::on_acquire(cls);
  lock_order::on_acquire(cls);
  EXPECT_NE(g_captured.find("lock-order inversion"), std::string::npos)
      << g_captured;
  lock_order::on_release(cls);
  lock_order::on_release(cls);
}

TEST_F(LockOrderTest, RepoHierarchyAcquiresInDocumentedOrder) {
  // The documented repo order (DESIGN.md §9), all 13 classes, outermost
  // first: nesting every one of them in rank order is clean, and only the
  // runtime class may re-enter itself.
  Mutex tenant(lock_order::kLockRankTenant);
  Mutex service_graph(lock_order::kLockRankServiceGraph);
  Mutex profile(lock_order::kLockRankProfileCache);
  RecursiveMutex runtime(lock_order::kLockRankRuntime);
  Mutex sanitizer_shard(lock_order::kLockRankSanitizerShard);
  Mutex sanitizer_clock(lock_order::kLockRankSanitizerClock);
  Mutex data(lock_order::kLockRankData);
  Mutex sanitizer_state(lock_order::kLockRankSanitizerState);
  Mutex analyzer(lock_order::kLockRankAnalyzer);
  Mutex account(lock_order::kLockRankAccount);
  Mutex queue(lock_order::kLockRankQueue);
  Mutex trace(lock_order::kLockRankTrace);
  Mutex wake(lock_order::kLockRankExecWake);
  LockGuard l0(tenant);
  LockGuard l1(service_graph);
  LockGuard l2(profile);
  RecursiveLockGuard l3(runtime);
  RecursiveLockGuard l3again(runtime);  // the runtime lock is recursive
  LockGuard l4(sanitizer_shard);
  LockGuard l5(sanitizer_clock);
  LockGuard l6(data);
  LockGuard l7(sanitizer_state);
  LockGuard l8(analyzer);
  LockGuard l9(account);
  LockGuard l10(queue);
  LockGuard l11(trace);
  LockGuard l12(wake);
  EXPECT_EQ(lock_order::held_depth(), 14u);
  EXPECT_TRUE(g_captured.empty()) << g_captured;
}

TEST_F(LockOrderTest, AssertHeldPassesWhenHeldAnywhereInTheStack) {
  Mutex low(kLow);
  Mutex high(kHigh);
  LockGuard a(low);
  LockGuard b(high);
  low.assert_held();  // not the innermost entry — still held
  high.assert_held();
  EXPECT_TRUE(g_captured.empty()) << g_captured;
}

TEST_F(LockOrderTest, AssertHeldReportsWithoutCorruptingTheStack) {
  Mutex m(kLow);
  const std::size_t depth = lock_order::held_depth();
  m.assert_held();
  EXPECT_NE(g_captured.find("lock assertion failed"), std::string::npos)
      << g_captured;
  EXPECT_NE(g_captured.find("'test.low'"), std::string::npos) << g_captured;
  // A failed assertion must not push a phantom entry.
  EXPECT_EQ(lock_order::held_depth(), depth);
}

TEST_F(LockOrderTest, DisabledCheckerIsSilent) {
  lock_order::set_enforced(false);
  Mutex low(kLow);
  Mutex high(kHigh);
  LockGuard outer(high);
  LockGuard inner(low);  // would be an inversion
  low.assert_held();
  EXPECT_TRUE(g_captured.empty()) << g_captured;
  EXPECT_EQ(lock_order::held_depth(), 0u);
}

TEST_F(LockOrderTest, UniqueLockParticipatesInTheStack) {
  Mutex m(kLow);
  {
    UniqueLock lock(m);
    EXPECT_EQ(lock_order::held_depth(), 1u);
    EXPECT_TRUE(lock_order::holds(kLow));
  }
  EXPECT_EQ(lock_order::held_depth(), 0u);
}

// --- default handler: abort with the report on stderr -------------------

TEST(LockOrderDeathTest, InversionAbortsNamingBothClasses) {
  EXPECT_DEATH(
      {
        lock_order::set_enforced(true);
        lock_order::set_violation_handler(nullptr);  // default: abort
        // A realistic inversion against the repo hierarchy: taking the
        // account mutex while holding a queue shard.
        Mutex queue_shard(lock_order::kLockRankQueue);
        Mutex account(lock_order::kLockRankAccount);
        LockGuard outer(queue_shard);
        LockGuard inner(account);
      },
      "lock-order inversion: acquiring 'sched\\.account' \\(rank 20\\) while "
      "holding 'sched\\.queue' \\(rank 30\\)");
}

TEST(LockOrderDeathTest, FailedAssertHeldAbortsNamingTheClass) {
  EXPECT_DEATH(
      {
        lock_order::set_enforced(true);
        lock_order::set_violation_handler(nullptr);
        Mutex m(lock_order::kLockRankTrace);
        m.assert_held();
      },
      "lock assertion failed: 'trace' \\(rank 40\\) is not held");
}

}  // namespace
}  // namespace versa
