// Unit tests for the service-mode subsystem (src/service/, DESIGN.md §10):
// tenant registration and check-and-charge admission, typed rejection
// reasons, the weighted fair-share interleaver's window/park/refill
// mechanics, and end-to-end VersaService graph lifecycle on the sim
// backend (two tenants, quota rejection and recovery, malformed specs,
// waits on unissued graphs, shutdown, accounting reconciliation, and a
// profile warm start carried from one service instance to the next).
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "machine/presets.h"
#include "runtime/config.h"
#include "sched/core/fair_share.h"
#include "sched/versioning_scheduler.h"
#include "service/tenant_registry.h"
#include "service/versa_service.h"

namespace versa {
namespace {

using namespace versa::service;

// --- tenant registry ------------------------------------------------------

TEST(TenantRegistry, AssignsDenseIdsFromOne) {
  TenantRegistry registry;
  EXPECT_EQ(registry.register_tenant("a", {}), 1u);
  EXPECT_EQ(registry.register_tenant("b", {}), 2u);
  EXPECT_EQ(registry.tenant_count(), 2u);
  EXPECT_TRUE(registry.known(1));
  EXPECT_TRUE(registry.known(2));
  // Tenant 0 is the implicit single-program default, never a registered
  // service tenant.
  EXPECT_FALSE(registry.known(kDefaultTenant));
  EXPECT_FALSE(registry.known(3));
  EXPECT_EQ(registry.tenant_name(2), "b");
}

TEST(TenantRegistry, UnknownTenantIsRejectedNotCharged) {
  TenantRegistry registry;
  const Rejected r = registry.admit(7, 10, 1024);
  ASSERT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.reason, RejectReason::kUnknownTenant);
  EXPECT_STREQ(to_string(r.reason), "unknown-tenant");
}

TEST(TenantRegistry, ZeroWeightTenantIsRegisteredRejected) {
  TenantRegistry registry;
  TenantQuota zero;
  zero.weight = 0;
  const TenantId t = registry.register_tenant("weightless", zero);
  EXPECT_TRUE(registry.known(t));
  const Rejected r = registry.admit(t, 1, 64);
  ASSERT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.reason, RejectReason::kMalformedSpec);
  EXPECT_NE(r.detail.find("weight 0"), std::string::npos) << r.detail;
  EXPECT_EQ(registry.stats(t).in_flight_tasks, 0u) << "nothing charged";
  EXPECT_EQ(registry.stats(t).rejected_graphs, 1u);
}

TEST(TenantRegistry, TaskQuotaCheckAndCharge) {
  TenantRegistry registry;
  TenantQuota quota;
  quota.max_in_flight_tasks = 10;
  const TenantId t = registry.register_tenant("bounded", quota);

  EXPECT_FALSE(static_cast<bool>(registry.admit(t, 6, 0)));
  // 6 in flight + 5 > 10: rejected, and the failed admission charges
  // nothing.
  const Rejected r = registry.admit(t, 5, 0);
  ASSERT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.reason, RejectReason::kTaskQuota);
  EXPECT_NE(r.detail.find("10"), std::string::npos) << r.detail;
  EXPECT_EQ(registry.stats(t).in_flight_tasks, 6u);
  EXPECT_EQ(registry.stats(t).rejected_graphs, 1u);

  // Exactly filling the quota is admitted; retiring restores headroom.
  EXPECT_FALSE(static_cast<bool>(registry.admit(t, 4, 0)));
  registry.on_graph_complete(t, 6, 0);
  EXPECT_FALSE(static_cast<bool>(registry.admit(t, 6, 0)));

  const TenantStats stats = registry.stats(t);
  EXPECT_EQ(stats.admitted_graphs, 3u);
  EXPECT_EQ(stats.completed_graphs, 1u);
  EXPECT_EQ(stats.completed_tasks, 6u);
  EXPECT_EQ(stats.in_flight_tasks, 10u);
}

TEST(TenantRegistry, ByteQuotaReturnedOnCompletion) {
  TenantRegistry registry;
  TenantQuota quota;
  quota.max_bytes = 1 << 20;
  const TenantId t = registry.register_tenant("small", quota);

  EXPECT_FALSE(static_cast<bool>(registry.admit(t, 1, 1 << 19)));
  const Rejected r = registry.admit(t, 1, (1 << 19) + 1);
  ASSERT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.reason, RejectReason::kByteQuota);

  // Retiring the graph returns its byte charge: the whole quota is free.
  registry.on_graph_complete(t, 1, 1 << 19);
  EXPECT_EQ(registry.stats(t).in_flight_bytes, 0u);
  EXPECT_EQ(registry.stats(t).completed_graphs, 1u);
  EXPECT_FALSE(static_cast<bool>(registry.admit(t, 1, 1 << 20)));
}

// --- fair-share interleaver ----------------------------------------------

TEST(FairShare, WindowBoundsDispatchAndParksOverflow) {
  core::FairShareInterleaver gate;
  gate.set_window(2);
  EXPECT_TRUE(gate.offer(1, 101));
  EXPECT_TRUE(gate.offer(1, 102));
  EXPECT_FALSE(gate.offer(1, 103));  // window full: parked
  EXPECT_EQ(gate.in_flight(), 2u);
  EXPECT_EQ(gate.parked(), 1u);

  std::vector<TaskId> release;
  gate.on_complete(1, release);
  ASSERT_EQ(release.size(), 1u);
  EXPECT_EQ(release[0], 103u);  // FIFO within the tenant
  EXPECT_EQ(gate.in_flight(), 2u);
  EXPECT_EQ(gate.parked(), 0u);
  EXPECT_EQ(gate.offered(1), 3u);
  EXPECT_EQ(gate.completed(1), 1u);
}

TEST(FairShare, WeightedRoundRobinSharesRefills) {
  core::FairShareInterleaver gate;
  gate.set_window(1);
  gate.set_weight(1, 1);
  gate.set_weight(2, 2);
  gate.set_weight(3, 3);

  // One dispatched task holds the single window slot; everything else
  // parks: 12 tasks per tenant, FIFO ids t*100 + i.
  ASSERT_TRUE(gate.offer(1, 99));
  for (TenantId t = 1; t <= 3; ++t) {
    for (TaskId i = 0; i < 12; ++i) {
      EXPECT_FALSE(gate.offer(t, t * 100 + i));
    }
  }

  // Drain 24 slots: each completion frees the slot and the WRR refill
  // hands it to the next backlogged tenant. Over any span where every
  // tenant stays backlogged, the released counts must match the 1:2:3
  // weights exactly (full rounds release 1+2+3).
  TenantId holder = 1;  // tenant of the task occupying the slot
  std::vector<TaskId> order;
  for (int i = 0; i < 24; ++i) {
    std::vector<TaskId> release;
    gate.on_complete(holder, release);
    ASSERT_EQ(release.size(), 1u) << "work-conserving refill " << i;
    order.push_back(release[0]);
    holder = static_cast<TenantId>(release[0] / 100);
  }
  int per_tenant[4] = {0, 0, 0, 0};
  TaskId last_id[4] = {0, 0, 0, 0};
  for (const TaskId id : order) {
    const TenantId t = static_cast<TenantId>(id / 100);
    ++per_tenant[t];
    // FIFO inside each tenant's lane.
    if (last_id[t] != 0) {
      EXPECT_LT(last_id[t], id);
    }
    last_id[t] = id;
  }
  EXPECT_EQ(per_tenant[1], 4);   // 24 releases = 4 full rounds of 1:2:3
  EXPECT_EQ(per_tenant[2], 8);
  EXPECT_EQ(per_tenant[3], 12);
}

TEST(FairShare, WorkConservingForLoneBackloggedTenant) {
  core::FairShareInterleaver gate;
  gate.set_window(2);
  gate.set_weight(1, 1);
  gate.set_weight(2, 100);
  ASSERT_TRUE(gate.offer(1, 11));
  ASSERT_TRUE(gate.offer(1, 12));
  for (TaskId i = 0; i < 4; ++i) EXPECT_FALSE(gate.offer(1, 20 + i));

  // Tenant 2 has weight 100 but no parked work: tenant 1 keeps the whole
  // window.
  std::vector<TaskId> release;
  gate.on_complete(1, release);
  ASSERT_EQ(release.size(), 1u);
  EXPECT_EQ(release[0], 20u);
}

// --- end-to-end service on the sim backend --------------------------------

GraphSpec chain_spec(TaskTypeId type, std::size_t tasks,
                     std::uint64_t bytes = 4096) {
  GraphSpec spec;
  spec.regions.push_back({"chain", bytes});
  for (std::size_t i = 0; i < tasks; ++i) {
    TaskSpec task;
    task.type = type;
    task.accesses.push_back({0, AccessMode::kInOut});
    spec.tasks.push_back(task);
  }
  return spec;
}

struct ServiceFixture {
  Machine machine = make_smp_machine(2);
  VersaService svc;
  TaskTypeId work;

  explicit ServiceFixture(VersaServiceConfig config = {})
      : svc(machine, std::move(config)) {
    work = svc.runtime().declare_task("svc_work");
    svc.runtime().add_version(work, DeviceKind::kSmp, "smp");
  }
};

TEST(VersaService, TwoTenantsSubmitWaitAndReconcile) {
  ServiceFixture fx;
  Session a = fx.svc.open_session("alpha", {});
  Session b = fx.svc.open_session("beta", {});

  std::vector<GraphId> a_graphs, b_graphs;
  for (int i = 0; i < 3; ++i) {
    const SubmitResult ra = a.submit(chain_spec(fx.work, 4));
    const SubmitResult rb = b.submit(chain_spec(fx.work, 2));
    ASSERT_TRUE(ra.admitted()) << ra.rejected.detail;
    ASSERT_TRUE(rb.admitted()) << rb.rejected.detail;
    EXPECT_NE(ra.graph, rb.graph);
    a_graphs.push_back(ra.graph);
    b_graphs.push_back(rb.graph);
  }
  for (const GraphId g : a_graphs) a.wait(g);
  for (const GraphId g : b_graphs) b.wait(g);

  const TenantStats sa = a.stats();
  EXPECT_EQ(sa.admitted_graphs, 3u);
  EXPECT_EQ(sa.completed_graphs, 3u);
  EXPECT_EQ(sa.completed_tasks, 12u);
  EXPECT_EQ(sa.in_flight_tasks, 0u);
  EXPECT_EQ(sa.in_flight_bytes, 0u);
  const TenantStats sb = b.stats();
  EXPECT_EQ(sb.completed_graphs, 3u);
  EXPECT_EQ(sb.completed_tasks, 6u);
  EXPECT_EQ(sb.rejected_graphs, 0u);
}

TEST(VersaService, WaitIsIdempotentPerGraph) {
  ServiceFixture fx;
  Session s = fx.svc.open_session("solo", {});
  const SubmitResult r = s.submit(chain_spec(fx.work, 3));
  ASSERT_TRUE(r.admitted());
  s.wait(r.graph);
  s.wait(r.graph);  // second retire must be a no-op
  const TenantStats stats = s.stats();
  EXPECT_EQ(stats.completed_graphs, 1u);
  EXPECT_EQ(stats.completed_tasks, 3u);
  EXPECT_EQ(stats.in_flight_tasks, 0u);
}

TEST(VersaService, QuotaRejectionIsTypedAndRecoverable) {
  ServiceFixture fx;
  TenantQuota quota;
  quota.max_in_flight_tasks = 5;
  Session s = fx.svc.open_session("tight", quota);

  const SubmitResult first = s.submit(chain_spec(fx.work, 4));
  ASSERT_TRUE(first.admitted());
  const SubmitResult second = s.submit(chain_spec(fx.work, 4));
  ASSERT_FALSE(second.admitted());
  EXPECT_EQ(second.rejected.reason, RejectReason::kTaskQuota);
  EXPECT_EQ(second.graph, kInvalidGraph);

  // Retiring the first graph frees its quota charge; the same spec is now
  // admitted.
  s.wait(first.graph);
  const SubmitResult third = s.submit(chain_spec(fx.work, 4));
  ASSERT_TRUE(third.admitted()) << third.rejected.detail;
  s.wait(third.graph);
  EXPECT_EQ(s.stats().rejected_graphs, 1u);
}

TEST(VersaService, ByteQuotaCountsSpecRegions) {
  ServiceFixture fx;
  TenantQuota quota;
  quota.max_bytes = 8192;
  Session s = fx.svc.open_session("lowmem", quota);
  const SubmitResult r = s.submit(chain_spec(fx.work, 1, 8193));
  ASSERT_FALSE(r.admitted());
  EXPECT_EQ(r.rejected.reason, RejectReason::kByteQuota);
  const SubmitResult ok = s.submit(chain_spec(fx.work, 1, 8192));
  ASSERT_TRUE(ok.admitted());
  s.wait(ok.graph);
}

TEST(VersaService, OutOfRangeRegionIndexIsRejectedBeforeAdmission) {
  ServiceFixture fx;
  TenantQuota quota;
  quota.max_in_flight_tasks = 2;
  Session s = fx.svc.open_session("client", quota);

  GraphSpec bad = chain_spec(fx.work, 2);
  bad.tasks[1].accesses.push_back({1, AccessMode::kIn});  // one region only
  const SubmitResult r = s.submit(bad);
  ASSERT_FALSE(r.admitted());
  EXPECT_EQ(r.rejected.reason, RejectReason::kMalformedSpec);
  EXPECT_STREQ(to_string(r.rejected.reason), "malformed-spec");
  EXPECT_EQ(r.graph, kInvalidGraph);
  EXPECT_EQ(s.stats().in_flight_tasks, 0u) << "no quota charged";

  // The session stays usable: a valid spec filling the whole quota is
  // admitted and runs.
  const SubmitResult ok = s.submit(chain_spec(fx.work, 2));
  ASSERT_TRUE(ok.admitted()) << ok.rejected.detail;
  s.wait(ok.graph);
  EXPECT_EQ(s.stats().completed_graphs, 1u);
}

/// Submits `spec` and expects a kMalformedSpec rejection that charges no
/// quota and leaves the session usable.
void expect_malformed(ServiceFixture& fx, const GraphSpec& spec) {
  Session s = fx.svc.open_session("client", {});
  const SubmitResult r = s.submit(spec);
  ASSERT_FALSE(r.admitted());
  EXPECT_EQ(r.rejected.reason, RejectReason::kMalformedSpec);
  EXPECT_EQ(r.graph, kInvalidGraph);
  EXPECT_EQ(s.stats().in_flight_tasks, 0u) << "no quota charged";
  EXPECT_EQ(s.stats().in_flight_bytes, 0u) << "no quota charged";
  const SubmitResult ok = s.submit(chain_spec(fx.work, 2));
  ASSERT_TRUE(ok.admitted()) << ok.rejected.detail;
  s.wait(ok.graph);
}

TEST(VersaService, ZeroByteRegionIsRejectedBeforeAdmission) {
  ServiceFixture fx;
  expect_malformed(fx, chain_spec(fx.work, 1, 0));
}

TEST(VersaService, SpecLargerThanHostMemoryIsRejectedBeforeAdmission) {
  // Each region fits in host memory, but together they do not: running
  // one task would evict the other region's only copy.
  ServiceFixture fx;
  const std::uint64_t half = fx.machine.space(kHostSpace).capacity / 2 + 1;
  GraphSpec spec;
  spec.regions = {{"a", half}, {"b", half}};
  for (std::size_t region : {0, 1}) {
    TaskSpec task;
    task.type = fx.work;
    task.accesses.push_back({region, AccessMode::kInOut});
    spec.tasks.push_back(task);
  }
  expect_malformed(fx, spec);
}

TEST(VersaService, UndeclaredTaskTypeIsRejectedBeforeAdmission) {
  ServiceFixture fx;
  expect_malformed(fx, chain_spec(fx.work + 1, 1));
}

TEST(VersaService, TaskTypeWithoutVersionsIsRejectedBeforeAdmission) {
  ServiceFixture fx;
  const TaskTypeId bare = fx.svc.runtime().declare_task("no_versions");
  expect_malformed(fx, chain_spec(bare, 1));
}

TEST(VersaService, TaskTypeWithNoRunnableVersionIsRejectedBeforeAdmission) {
  ServiceFixture fx;  // SMP-only machine
  const TaskTypeId gpu_only = fx.svc.runtime().declare_task("gpu_only");
  fx.svc.runtime().add_version(gpu_only, DeviceKind::kCuda, "cuda");
  expect_malformed(fx, chain_spec(gpu_only, 1));
}

class ServiceSpecFuzzTest : public testing::TestWithParam<Backend> {};

TEST_P(ServiceSpecFuzzTest, EverySpecCompletesOrIsTypedRejected) {
  // Random region counts and sizes, region indices, modes and type ids:
  // every submission either runs to completion or is rejected as
  // malformed — never an abort.
  VersaServiceConfig config;
  config.runtime.backend = GetParam();
  ServiceFixture fx(config);
  const std::uint64_t host = fx.machine.space(kHostSpace).capacity;
  const TaskTypeId bare = fx.svc.runtime().declare_task("no_versions");
  const TaskTypeId gpu_only = fx.svc.runtime().declare_task("gpu_only");
  fx.svc.runtime().add_version(gpu_only, DeviceKind::kCuda, "cuda");
  const TaskTypeId unrunnable[] = {bare, gpu_only, gpu_only + 1,
                                   kInvalidTaskType};
  Session s = fx.svc.open_session("fuzz", {});

  std::mt19937_64 rng(20130520);
  auto below = [&rng](std::uint64_t n) { return rng() % n; };
  std::uint64_t admitted = 0, rejected = 0, tasks_run = 0;
  for (int round = 0; round < 150; ++round) {
    GraphSpec spec;
    const std::size_t regions = below(5);
    for (std::size_t r = 0; r < regions; ++r) {
      // One size in 40 is zero and one is larger than host memory; the
      // rest span 1 B .. 64 KiB.
      const std::uint64_t pick = below(40);
      spec.regions.push_back({"r" + std::to_string(r),
                              pick == 0   ? 0
                              : pick == 1 ? host + 1 + below(host)
                                          : 1 + below(64 << 10)});
    }
    spec.tasks.resize(below(7));
    for (TaskSpec& task : spec.tasks) {
      // One type in 20 is undeclared or has no runnable version, and one
      // index in 20 (every index of a region-less spec) is out of range.
      task.type = below(20) == 0 ? unrunnable[below(4)] : fx.work;
      task.priority = static_cast<int>(below(3));
      for (std::uint64_t a = below(4); a > 0; --a) {
        const std::size_t region = regions == 0 || below(20) == 0
                                       ? regions + below(3)
                                       : below(regions);
        task.accesses.push_back({region, static_cast<AccessMode>(below(3))});
      }
    }
    const SubmitResult r = s.submit(spec);
    if (r.admitted()) {
      ++admitted;
      tasks_run += spec.tasks.size();
      EXPECT_FALSE(static_cast<bool>(s.wait(r.graph))) << "round " << round;
    } else {
      ++rejected;
      EXPECT_EQ(r.rejected.reason, RejectReason::kMalformedSpec)
          << "round " << round << ": " << r.rejected.detail;
    }
  }
  EXPECT_GT(admitted, 50u);
  EXPECT_GT(rejected, 20u);
  const TenantStats stats = s.stats();
  EXPECT_EQ(stats.completed_graphs, admitted);
  EXPECT_EQ(stats.completed_tasks, tasks_run);
  EXPECT_EQ(stats.in_flight_tasks, 0u);
  EXPECT_EQ(stats.in_flight_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ServiceSpecFuzzTest,
                         testing::Values(Backend::kSim, Backend::kThreads),
                         [](const testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kSim ? "sim"
                                                              : "threads";
                         });

class ServiceZeroWeightTest : public testing::TestWithParam<Backend> {};

TEST_P(ServiceZeroWeightTest, ZeroWeightTenantIsRejectedNotFatal) {
  // Weight 0 has no fair share to give: the session opens in a rejected
  // state, every submit comes back malformed-spec naming the weight, and
  // the other tenants run as usual.
  VersaServiceConfig config;
  config.runtime.backend = GetParam();
  ServiceFixture fx(config);
  TenantQuota zero;
  zero.weight = 0;
  Session bad = fx.svc.open_session("weightless", zero);
  Session good = fx.svc.open_session("weighted", {});
  for (int i = 0; i < 3; ++i) {
    const SubmitResult r = bad.submit(chain_spec(fx.work, 2));
    ASSERT_FALSE(r.admitted());
    EXPECT_EQ(r.rejected.reason, RejectReason::kMalformedSpec);
    EXPECT_NE(r.rejected.detail.find("weight 0"), std::string::npos)
        << r.rejected.detail;
    EXPECT_EQ(r.graph, kInvalidGraph);
  }
  const TenantStats stats = bad.stats();
  EXPECT_EQ(stats.rejected_graphs, 3u);
  EXPECT_EQ(stats.admitted_graphs, 0u);
  EXPECT_EQ(stats.in_flight_tasks, 0u);
  const SubmitResult ok = good.submit(chain_spec(fx.work, 2));
  ASSERT_TRUE(ok.admitted()) << ok.rejected.detail;
  EXPECT_FALSE(static_cast<bool>(good.wait(ok.graph)));
  EXPECT_EQ(good.stats().completed_tasks, 2u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ServiceZeroWeightTest,
                         testing::Values(Backend::kSim, Backend::kThreads),
                         [](const testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kSim ? "sim"
                                                              : "threads";
                         });

TEST(VersaService, UnknownTenantAndShutdownRejections) {
  ServiceFixture fx;
  Session s = fx.svc.open_session("only", {});

  const SubmitResult ghost = fx.svc.submit_graph(42, chain_spec(fx.work, 1));
  ASSERT_FALSE(ghost.admitted());
  EXPECT_EQ(ghost.rejected.reason, RejectReason::kUnknownTenant);

  const SubmitResult live = s.submit(chain_spec(fx.work, 2));
  ASSERT_TRUE(live.admitted());
  fx.svc.shutdown();
  const SubmitResult after = s.submit(chain_spec(fx.work, 2));
  ASSERT_FALSE(after.admitted());
  EXPECT_EQ(after.rejected.reason, RejectReason::kShutdown);
  // In-flight graphs keep running across shutdown.
  s.wait(live.graph);
  EXPECT_EQ(s.stats().completed_graphs, 1u);
}

TEST(VersaService, WaitOnUnissuedGraphIsRejectedNotFatal) {
  ServiceFixture fx;
  Session s = fx.svc.open_session("client", {});

  // The default graph and an id past every graph the runtime opened are
  // both unknown to the service: typed rejection, no abort.
  for (const GraphId ghost : {kDefaultGraph, GraphId{12345}}) {
    const Rejected r = s.wait(ghost);
    ASSERT_TRUE(static_cast<bool>(r)) << ghost;
    EXPECT_EQ(r.reason, RejectReason::kUnknownGraph);
    EXPECT_STREQ(to_string(r.reason), "unknown-graph");
  }

  const SubmitResult ok = s.submit(chain_spec(fx.work, 2));
  ASSERT_TRUE(ok.admitted()) << ok.rejected.detail;
  EXPECT_FALSE(static_cast<bool>(s.wait(ok.graph)));
  EXPECT_FALSE(static_cast<bool>(s.wait(ok.graph)));  // idempotent
  EXPECT_EQ(s.stats().completed_graphs, 1u);
  EXPECT_EQ(s.stats().in_flight_tasks, 0u);
}

TEST(VersaService, ProfileSavedByOneInstanceWarmStartsTheNext) {
  const std::string path = testing::TempDir() + "/service_warm.profile";
  std::remove(path.c_str());
  {
    VersaServiceConfig config;
    config.runtime.profile_save_path = path;
    ServiceFixture fx(config);
    Session s = fx.svc.open_session("learner", {});
    for (int i = 0; i < 4; ++i) {
      const SubmitResult r = s.submit(chain_spec(fx.work, 8));
      ASSERT_TRUE(r.admitted());
      s.wait(r.graph);
    }
  }  // destroying the service's runtime saves the learned profile
  // A fresh service on the same machine loads it at its first submit and
  // skips the learning phase.
  VersaServiceConfig config;
  config.runtime.profile_load_path = path;
  ServiceFixture fresh(config);
  Session s = fresh.svc.open_session("reader", {});
  const SubmitResult r = s.submit(chain_spec(fresh.work, 8));
  ASSERT_TRUE(r.admitted());
  s.wait(r.graph);
  const ProfileLoadResult warm = fresh.svc.runtime().profile_load_result();
  EXPECT_TRUE(warm.warm()) << warm.message;
  EXPECT_EQ(dynamic_cast<const VersioningScheduler&>(
                fresh.svc.runtime().scheduler())
                .learning_executions(),
            0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace versa
