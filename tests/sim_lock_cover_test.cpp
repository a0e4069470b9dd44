// Lock covering on the sim backend (DESIGN.md §9): the sim runtime marks
// its directory, account and queue-shard mutexes as covered by the
// runtime lock, so they skip their native mutexes. Covering must change
// neither the lock-order bookkeeping nor what the program does:
//
//   * the sim runtime's three inner mutex kinds are covered, and a thread
//     runtime covers none;
//   * with the checker enforced and a capturing handler, a matmul sim run
//     and a two-session sim service run raise no report and take exactly
//     the number of acquisitions of each class that the same code takes
//     with its native locks (covering skips no bookkeeping);
//   * a second thread that reads a sim runtime's directory without the
//     runtime lock is reported (the check the covering relies on).
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/matmul.h"
#include "machine/presets.h"
#include "runtime/runtime.h"
#include "sched/scheduler.h"
#include "service/versa_service.h"
#include "util/lock_order.h"

namespace versa {
namespace {

// The violation hook is a plain function pointer, so the capturing
// handler stores into file-scope state (guarded: the mutation test
// reports from a second thread).
std::mutex g_reports_mutex;
std::vector<std::string> g_reports;
void capture_report(const char* report) {
  std::lock_guard<std::mutex> lock(g_reports_mutex);
  g_reports.emplace_back(report);
}

class SimLockCoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enforced_ = lock_order::enforced();
    lock_order::set_enforced(true);
    previous_ = lock_order::set_violation_handler(&capture_report);
    g_reports.clear();
  }
  void TearDown() override {
    lock_order::set_violation_handler(previous_);
    lock_order::set_enforced(was_enforced_);
  }

  static std::string reports() {
    std::string all;
    for (const std::string& r : g_reports) all += r + "\n";
    return all;
  }

 private:
  bool was_enforced_ = false;
  lock_order::ViolationHandler previous_ = nullptr;
};

/// Acquisitions of each lock class the calling thread makes in `op`.
struct LockCounts {
  std::uint64_t service = 0;
  std::uint64_t runtime = 0;
  std::uint64_t data = 0;
  std::uint64_t account = 0;
  std::uint64_t queue = 0;
};

LockCounts snapshot() {
  return {lock_order::acquisitions(lock_order::kLockRankService),
          lock_order::acquisitions(lock_order::kLockRankRuntime),
          lock_order::acquisitions(lock_order::kLockRankData),
          lock_order::acquisitions(lock_order::kLockRankAccount),
          lock_order::acquisitions(lock_order::kLockRankQueue)};
}

template <typename Op>
LockCounts locks_taken(Op&& op) {
  const LockCounts before = snapshot();
  op();
  const LockCounts after = snapshot();
  return {after.service - before.service, after.runtime - before.runtime,
          after.data - before.data, after.account - before.account,
          after.queue - before.queue};
}

RuntimeConfig config_for(Backend backend) {
  RuntimeConfig config;
  config.backend = backend;
  config.scheduler = "versioning";
  config.noise.kind = sim::NoiseKind::kNone;
  return config;
}

TEST(SimLockCover, SimCoversTheInnerLocksAndThreadsCoversNone) {
  const Machine machine = make_minotauro_node(2, 1);
  for (const Backend backend : {Backend::kSim, Backend::kThreads}) {
    const bool sim = backend == Backend::kSim;
    Runtime rt(machine, config_for(backend));
    EXPECT_EQ(rt.data_directory().lock_covered(), sim);
    auto& queue = dynamic_cast<QueueScheduler&>(rt.scheduler());
    EXPECT_EQ(queue.account_lock_covered(), sim);
    for (WorkerId w = 0; w < machine.worker_count(); ++w) {
      EXPECT_EQ(queue.queue_lock_covered(w), sim) << "worker " << w;
    }
  }
}

TEST_F(SimLockCoverTest, MatmulSimRunIsCleanAtTheUncoveredLockCounts) {
  const Machine machine = make_minotauro_node(4, 2);
  Runtime rt(machine, config_for(Backend::kSim));
  apps::MatmulParams params;
  params.n = 4096;  // 4 x 4 tiles: 64 tasks
  apps::MatmulApp app(rt, params);
  const LockCounts locks = locks_taken([&] { app.run(); });
  EXPECT_TRUE(g_reports.empty()) << reports();
  ASSERT_EQ(app.task_count(), 64u);
  // Exact counts: covering keeps every acquisition in the bookkeeping, so
  // an uncovered run of the same code takes the same numbers. The queue
  // count is one shard lock per push and per pop hit: a non-stealing
  // policy's runtime-locked miss reads the shard length and takes none.
  EXPECT_EQ(locks.runtime, 66u);
  EXPECT_EQ(locks.data, 193u);
  EXPECT_EQ(locks.account, 275u);
  EXPECT_EQ(locks.queue, 128u);
}

TEST_F(SimLockCoverTest,
       TwoSessionSimServiceRunIsCleanAtTheUncoveredLockCounts) {
  using namespace versa::service;
  const Machine machine = make_smp_machine(2);
  VersaServiceConfig config;
  config.runtime = config_for(Backend::kSim);
  VersaService svc(machine, config);
  const TaskTypeId type = svc.runtime().declare_task("t");
  svc.runtime().add_version(type, DeviceKind::kSmp, "v", nullptr,
                            make_constant_cost(1e-4));
  Session a = svc.open_session("a", TenantQuota{});
  Session b = svc.open_session("b", TenantQuota{});

  // Alternating chain and fan-out/fan-in graphs, as the service-sim
  // workload submits them.
  GraphSpec chain;
  chain.regions.push_back({"c", 4096});
  for (int i = 0; i < 3; ++i) {
    chain.tasks.push_back({type, {{0, AccessMode::kInOut}}, 0, ""});
  }
  GraphSpec fan;
  fan.regions = {{"src", 4096}, {"x", 4096}, {"y", 4096}, {"sink", 4096}};
  const auto in = [](std::size_t r) { return AccessSpec{r, AccessMode::kIn}; };
  const auto out = [](std::size_t r) {
    return AccessSpec{r, AccessMode::kOut};
  };
  fan.tasks.push_back({type, {out(0)}, 0, ""});
  fan.tasks.push_back({type, {in(0), out(1)}, 0, ""});
  fan.tasks.push_back({type, {in(0), out(2)}, 0, ""});
  fan.tasks.push_back({type, {in(1), in(2), out(3)}, 0, ""});

  constexpr int kRounds = 4;
  const LockCounts locks = locks_taken([&] {
    for (int round = 0; round < kRounds; ++round) {
      const GraphSpec& spec = round % 2 == 0 ? chain : fan;
      const SubmitResult ra = a.submit(spec);
      const SubmitResult rb = b.submit(spec);
      ASSERT_TRUE(ra.admitted() && rb.admitted());
      EXPECT_FALSE(a.wait(ra.graph));
      EXPECT_FALSE(b.wait(rb.graph));
    }
  });
  EXPECT_TRUE(g_reports.empty()) << reports();
  EXPECT_EQ(a.stats().completed_graphs + b.stats().completed_graphs,
            2u * kRounds);
  // Exact counts, as above.
  EXPECT_EQ(locks.service, 40u);
  EXPECT_EQ(locks.runtime, 92u);
  EXPECT_EQ(locks.data, 96u);
  EXPECT_EQ(locks.account, 138u);
  EXPECT_EQ(locks.queue, 56u);
}

TEST_F(SimLockCoverTest, DirectoryReadWithoutTheRuntimeLockIsReported) {
  const Machine machine = make_smp_machine(1);
  Runtime rt(machine, config_for(Backend::kSim));
  const RegionId r = rt.register_data("r", 64);
  {
    // Locked read: the cover is held, so nothing is reported.
    versa::RecursiveLockGuard lock(rt.port_mutex());
    EXPECT_TRUE(rt.data_directory().is_valid_in(r, kHostSpace));
  }
  EXPECT_TRUE(g_reports.empty()) << reports();
  std::thread reader([&] {
    EXPECT_TRUE(rt.data_directory().is_valid_in(r, kHostSpace));
  });
  reader.join();
  ASSERT_EQ(g_reports.size(), 1u) << reports();
  EXPECT_NE(g_reports[0].find("covered lock 'data'"), std::string::npos)
      << g_reports[0];
  EXPECT_NE(g_reports[0].find("'runtime'"), std::string::npos) << g_reports[0];
}

}  // namespace
}  // namespace versa
