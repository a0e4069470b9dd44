// Service-mode stress tests (run under TSan with VERSA_LOCK_ORDER=1 in
// CI): many client threads × several tenants × graph storms through one
// shared VersaService.
//
// StormReconcilesExactly is the acceptance scenario from the service-mode
// work: 6 client threads, 3 tenants, 240 graphs total (well past the
// 4 × 3 × 200 bar on the thread backend), one tenant quota-tight so the
// storm produces real typed rejections. Every graph must complete or be
// cleanly rejected, and the per-tenant accounting must reconcile *exactly*
// against the client-side tallies and the executed-task counters.
//
// FairShareHoldsUnderBacklog pins the weighted interleave: three tenants
// with weights 1:2:3 all fully backlogged behind a small dispatch window;
// over a mid-stream sample of task starts, every tenant's share must stay
// within 2x of its weight share.
//
// PerGraphRegionsRetireOnlyAfterTheirAcquires churns per-graph regions
// through register/submit/wait/unregister so that data staging races
// graph retirement (the directory aborts on an unregistered region).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "machine/presets.h"
#include "runtime/config.h"
#include "service/versa_service.h"

namespace versa {
namespace {

using namespace versa::service;

GraphSpec chain_spec(TaskTypeId type, std::size_t tasks) {
  GraphSpec spec;
  spec.regions.push_back({"chain", 4096});
  for (std::size_t i = 0; i < tasks; ++i) {
    TaskSpec task;
    task.type = type;
    task.accesses.push_back({0, AccessMode::kInOut});
    spec.tasks.push_back(task);
  }
  return spec;
}

class ServiceStormTest : public testing::TestWithParam<Backend> {};

TEST_P(ServiceStormTest, StormReconcilesExactly) {
  constexpr int kClients = 6;          // two per tenant
  constexpr int kGraphsPerClient = 40; // 240 graphs total
  constexpr std::size_t kTasksPerGraph = 3;

  const Machine machine = make_smp_machine(4);
  VersaServiceConfig config;
  config.runtime.backend = GetParam();
  VersaService svc(machine, config);

  // One task type per tenant so the executed-task counters can be
  // attributed without the body knowing its tenant.
  std::atomic<std::uint64_t> executed[3] = {{0}, {0}, {0}};
  TaskTypeId types[3];
  for (int t = 0; t < 3; ++t) {
    types[t] = svc.runtime().declare_task("storm_t" + std::to_string(t));
    svc.runtime().add_version(types[t], DeviceKind::kSmp, "smp",
                              [&executed, t](TaskContext&) {
                                executed[t].fetch_add(
                                    1, std::memory_order_relaxed);
                              });
  }

  // Tenant 2 ("tight") can hold at most 2 graphs in flight: with two
  // clients storming it, some submissions MUST be rejected.
  std::vector<Session> sessions;
  sessions.push_back(svc.open_session("bulk", {}));
  sessions.push_back(svc.open_session("steady", {}));
  TenantQuota tight;
  tight.max_in_flight_tasks = 2 * kTasksPerGraph;
  sessions.push_back(svc.open_session("tight", tight));

  std::atomic<std::uint64_t> admitted[3] = {{0}, {0}, {0}};
  std::atomic<std::uint64_t> rejected[3] = {{0}, {0}, {0}};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    const int tenant_index = c % 3;
    Session session = sessions[static_cast<std::size_t>(tenant_index)];
    clients.emplace_back([&, tenant_index, session]() mutable {
      const GraphSpec spec =
          chain_spec(types[tenant_index], kTasksPerGraph);
      for (int g = 0; g < kGraphsPerClient; ++g) {
        const SubmitResult result = session.submit(spec);
        if (!result.admitted()) {
          // The only legal rejection here is the tight tenant's task
          // quota — typed, graceful, nothing charged.
          ASSERT_EQ(result.rejected.reason, RejectReason::kTaskQuota);
          ASSERT_EQ(tenant_index, 2);
          rejected[tenant_index].fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        admitted[tenant_index].fetch_add(1, std::memory_order_relaxed);
        session.wait(result.graph);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Exact reconciliation: registry accounting vs client tallies vs
  // executed bodies.
  std::uint64_t total_graphs = 0;
  for (int t = 0; t < 3; ++t) {
    const TenantStats stats = sessions[static_cast<std::size_t>(t)].stats();
    EXPECT_EQ(stats.admitted_graphs, admitted[t].load()) << "tenant " << t;
    EXPECT_EQ(stats.rejected_graphs, rejected[t].load()) << "tenant " << t;
    EXPECT_EQ(stats.completed_graphs, stats.admitted_graphs);
    EXPECT_EQ(stats.completed_tasks, admitted[t].load() * kTasksPerGraph);
    EXPECT_EQ(executed[t].load(), stats.completed_tasks);
    EXPECT_EQ(stats.in_flight_tasks, 0u);
    EXPECT_EQ(stats.in_flight_bytes, 0u);
    total_graphs += stats.admitted_graphs + stats.rejected_graphs;
  }
  EXPECT_EQ(total_graphs,
            static_cast<std::uint64_t>(kClients) * kGraphsPerClient);
  // The untight tenants never see a rejection.
  EXPECT_EQ(rejected[0].load(), 0u);
  EXPECT_EQ(rejected[1].load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ServiceStormTest,
                         testing::Values(Backend::kSim, Backend::kThreads),
                         [](const testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kSim ? "sim"
                                                              : "threads";
                         });

// Per-graph region churn on the thread backend, shaped like the
// `service-churn` benchmark workload: 2 SMP workers, 2 client threads, and
// graphs whose regions are registered by submit and unregistered the
// moment wait returns. Every directory acquire of a graph's tasks must
// land before the graph retires: an acquire that trails the task it
// stages (or outlives its graph) aborts on the unregistered region.
// Spinning bystander threads oversubscribe the host so runtime threads
// get preempted mid-protocol, which is what opens such a window.
TEST(ServiceChurn, PerGraphRegionsRetireOnlyAfterTheirAcquires) {
  constexpr int kClients = 2;
  constexpr int kRoundsPerClient = 2000;
  constexpr int kBystanders = 4;

  const Machine machine = make_smp_machine(2);
  VersaServiceConfig config;
  config.runtime.backend = Backend::kThreads;
  VersaService svc(machine, config);
  std::atomic<std::uint64_t> executed{0};
  const TaskTypeId type = svc.runtime().declare_task("churn");
  svc.runtime().add_version(type, DeviceKind::kSmp, "smp",
                            [&executed](TaskContext&) {
                              executed.fetch_add(1, std::memory_order_relaxed);
                            });

  // A 4-task inout chain on one region, and a fan-out/fan-in over six.
  const GraphSpec chain = chain_spec(type, 4);
  GraphSpec fan;
  fan.regions.push_back({"src", 1024});
  for (int i = 0; i < 4; ++i) {
    fan.regions.push_back({"part" + std::to_string(i), 1024});
  }
  fan.regions.push_back({"sink", 1024});
  fan.tasks.push_back({type, {{0, AccessMode::kOut}}, 0, {}});
  for (std::size_t i = 1; i <= 4; ++i) {
    fan.tasks.push_back(
        {type, {{0, AccessMode::kIn}, {i, AccessMode::kOut}}, 0, {}});
  }
  fan.tasks.push_back({type,
                       {{1, AccessMode::kIn},
                        {2, AccessMode::kIn},
                        {3, AccessMode::kIn},
                        {4, AccessMode::kIn},
                        {5, AccessMode::kOut}},
                       0,
                       {}});

  std::vector<Session> sessions;
  for (int c = 0; c < kClients; ++c) {
    sessions.push_back(svc.open_session("tenant" + std::to_string(c), {}));
  }
  std::atomic<bool> done{false};
  std::vector<std::thread> bystanders;
  for (int b = 0; b < kBystanders; ++b) {
    bystanders.emplace_back([&done] {
      while (!done.load(std::memory_order_relaxed)) {
      }
    });
  }
  std::atomic<std::uint64_t> admitted_tasks{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Session& session = sessions[static_cast<std::size_t>(c)];
      for (int r = 0; r < kRoundsPerClient; ++r) {
        const GraphSpec& spec = (r + c) % 2 == 0 ? chain : fan;
        const SubmitResult result = session.submit(spec);
        ASSERT_TRUE(result.admitted()) << result.rejected.detail;
        admitted_tasks.fetch_add(spec.tasks.size(), std::memory_order_relaxed);
        session.wait(result.graph);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : bystanders) t.join();

  EXPECT_EQ(executed.load(), admitted_tasks.load());
  EXPECT_EQ(svc.runtime().data_directory().live_region_count(), 0u);
  for (Session& session : sessions) {
    const TenantStats stats = session.stats();
    EXPECT_EQ(stats.completed_graphs, stats.admitted_graphs);
    EXPECT_EQ(stats.in_flight_tasks, 0u);
  }
}

TEST(ServiceFairShare, FairShareHoldsUnderBacklog) {
  constexpr int kGraphsPerTenant = 40;
  constexpr std::size_t kTasksPerGraph = 4;
  constexpr std::size_t kTotalTasks = 3 * kGraphsPerTenant * kTasksPerGraph;
  constexpr std::size_t kWindow = 8;

  const Machine machine = make_smp_machine(4);
  VersaServiceConfig config;
  config.runtime.backend = Backend::kThreads;
  config.fair_share_window = kWindow;
  VersaService svc(machine, config);

  // Bodies park on a start gate until every graph is submitted, so the
  // interleaver refills from a state where all three tenants are fully
  // backlogged — the regime the weights are defined over. Each body then
  // records which tenant the n-th task start belonged to.
  std::atomic<bool> go{false};
  std::atomic<std::size_t> seq{0};
  std::vector<std::atomic<std::uint32_t>> starts(kTotalTasks);
  TaskTypeId types[3];
  for (int t = 0; t < 3; ++t) {
    types[t] = svc.runtime().declare_task("fair_t" + std::to_string(t));
    svc.runtime().add_version(
        types[t], DeviceKind::kSmp, "smp", [&go, &seq, &starts, t](TaskContext&) {
          while (!go.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          const std::size_t n = seq.fetch_add(1, std::memory_order_relaxed);
          ASSERT_LT(n, starts.size());
          starts[n].store(static_cast<std::uint32_t>(t),
                          std::memory_order_relaxed);
        });
  }

  std::vector<Session> sessions;
  for (std::uint32_t w = 1; w <= 3; ++w) {
    TenantQuota quota;
    quota.weight = w;  // tenants 1, 2, 3 with weights 1, 2, 3
    sessions.push_back(svc.open_session("w" + std::to_string(w), quota));
  }

  // Independent tasks (all inout chains would serialize): each task reads
  // the shared region, so every task of a graph is ready at submission and
  // the window is the only thing limiting dispatch.
  auto fanout_spec = [&](int tenant_index) {
    GraphSpec spec;
    spec.regions.push_back({"in", 4096});
    for (std::size_t i = 0; i < kTasksPerGraph; ++i) {
      TaskSpec task;
      task.type = types[tenant_index];
      task.accesses.push_back({0, AccessMode::kIn});
      spec.tasks.push_back(task);
    }
    return spec;
  };

  std::atomic<int> clients_done{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    Session session = sessions[static_cast<std::size_t>(t)];
    clients.emplace_back([&, t, session]() mutable {
      const GraphSpec spec = fanout_spec(t);
      std::vector<GraphId> graphs;
      graphs.reserve(kGraphsPerTenant);
      for (int g = 0; g < kGraphsPerTenant; ++g) {
        const SubmitResult result = session.submit(spec);
        ASSERT_TRUE(result.admitted()) << result.rejected.detail;
        graphs.push_back(result.graph);
      }
      clients_done.fetch_add(1, std::memory_order_release);
      for (const GraphId g : graphs) session.wait(g);
    });
  }
  while (clients_done.load(std::memory_order_acquire) < 3) {
    std::this_thread::yield();
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(seq.load(), kTotalTasks);

  // Skip the initial window fill (submission-ordered, not weighted), then
  // sample a stretch where every tenant still has deep backlog: tenant
  // shares must be within 2x of weight/6.
  constexpr std::size_t kSkip = 2 * kWindow;
  constexpr std::size_t kSample = 90;
  static_assert(kSkip + kSample < kGraphsPerTenant * kTasksPerGraph,
                "sample must end while the weight-1 tenant is backlogged");
  std::size_t per_tenant[3] = {0, 0, 0};
  for (std::size_t n = kSkip; n < kSkip + kSample; ++n) {
    ++per_tenant[starts[n].load(std::memory_order_relaxed)];
  }
  for (std::uint32_t t = 0; t < 3; ++t) {
    const std::uint32_t weight = t + 1;
    // share >= (weight / 6) / 2  <=>  12 * count >= kSample * weight
    EXPECT_GE(12 * per_tenant[t], kSample * weight)
        << "tenant with weight " << weight << " got " << per_tenant[t]
        << " of " << kSample << " starts";
  }
}

}  // namespace
}  // namespace versa
