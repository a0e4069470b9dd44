// White-box tests for the versioning scheduler's learning-phase machinery:
// λ-bounded in-flight sampling, the central pending pool, idle-worker
// pulls, and the fastest-executor ablation switch.
#include <gtest/gtest.h>

#include "machine/presets.h"
#include "runtime/runtime.h"
#include "sched/scheduler_factory.h"
#include "sched/versioning_scheduler.h"

namespace versa {
namespace {

TEST(VersioningInternals, LearningInflightIsBoundedByLambda) {
  // A burst of ready tasks must not queue more than λ learning runs of the
  // slow version before any measurement exists: with gpu/smp versions,
  // λ=2 and 30 simultaneously-ready tasks, at most 2 land on SMP workers
  // before the first completions (the rest pool up or go to the GPU pool
  // slots). We check post-hoc: the slow version ran only a handful of
  // times even though half the round-robin would have sent 15.
  const Machine machine = make_minotauro_node(4, 1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.profile.lambda = 2;
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  const VersionId gpu =
      rt.add_version(t, DeviceKind::kCuda, "gpu", nullptr,
                     make_constant_cost(1e-3));
  const VersionId smp = rt.add_version(t, DeviceKind::kSmp, "smp", nullptr,
                                       make_constant_cost(100e-3));
  for (int i = 0; i < 30; ++i) {
    const RegionId r = rt.register_data("r" + std::to_string(i), 64);
    rt.submit(t, {Access::inout(r)});
  }
  rt.taskwait();
  // 30 tasks, gpu 100x faster: the slow version gets its λ learning runs
  // plus at most a couple of idle-pull extras, nowhere near 15.
  EXPECT_LE(rt.run_stats().count(smp), 6u);
  EXPECT_GE(rt.run_stats().count(smp), 2u);  // λ samples do happen
  EXPECT_EQ(rt.run_stats().count(gpu) + rt.run_stats().count(smp), 30u);
}

TEST(VersioningInternals, IdleWorkersPullFromPoolDuringLearning) {
  // One GPU version only + a burst: while the single version learns, the
  // pool must keep the GPU busy (pull path), not deadlock.
  const Machine machine = make_minotauro_node(1, 1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.profile.lambda = 5;
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "gpu", nullptr,
                 make_constant_cost(1e-3));
  for (int i = 0; i < 20; ++i) {
    const RegionId r = rt.register_data("r" + std::to_string(i), 64);
    rt.submit(t, {Access::inout(r)});
  }
  rt.taskwait();
  EXPECT_EQ(rt.run_stats().total_tasks(), 20u);
  // Single worker, 1 ms each (+ 15 us PCIe latency per tiny input copy):
  // essentially serial despite the pool detour.
  EXPECT_NEAR(rt.elapsed(), 20e-3, 1e-3);
}

TEST(VersioningInternals, FastestExecutorSwitchIgnoresBusyTime) {
  // versioning-fastest: even with a saturated GPU, tasks keep going to the
  // fastest version's device; SMP workers only see λ learning runs.
  const Machine machine = make_minotauro_node(4, 1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning-fastest";
  config.profile.lambda = 1;
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  const VersionId gpu =
      rt.add_version(t, DeviceKind::kCuda, "gpu", nullptr,
                     make_constant_cost(1e-3));
  const VersionId smp = rt.add_version(t, DeviceKind::kSmp, "smp", nullptr,
                                       make_constant_cost(2e-3));
  for (int i = 0; i < 50; ++i) {
    const RegionId r = rt.register_data("r" + std::to_string(i), 64);
    rt.submit(t, {Access::inout(r)});
  }
  rt.taskwait();
  // Only the λ learning run plus a few idle pulls during the pre-reliable
  // window reach the SMP workers; the reliable phase sends everything to
  // the "fastest" GPU no matter how deep its queue gets.
  EXPECT_LE(rt.run_stats().count(smp), 5u);
  EXPECT_GE(rt.run_stats().count(gpu), 45u);
}

TEST(VersioningInternals, EarliestExecutorUsesIdleSlowWorkersInstead) {
  // Identical setup under the real policy: SMP workers pick up overflow.
  const Machine machine = make_minotauro_node(4, 1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.profile.lambda = 1;
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "gpu", nullptr,
                 make_constant_cost(1e-3));
  const VersionId smp = rt.add_version(t, DeviceKind::kSmp, "smp", nullptr,
                                       make_constant_cost(2e-3));
  for (int i = 0; i < 50; ++i) {
    const RegionId r = rt.register_data("r" + std::to_string(i), 64);
    rt.submit(t, {Access::inout(r)});
  }
  rt.taskwait();
  EXPECT_GT(rt.run_stats().count(smp), 10u);
}

TEST(VersioningInternals, PoolDrainsInSubmissionOrder) {
  // With a single worker and a burst larger than the learning slots, the
  // pooled tasks must still execute respecting their (chain) dependences
  // and finish in submission order per chain.
  const Machine machine = make_minotauro_node(1, 1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "gpu", nullptr,
                 make_constant_cost(1e-3));
  const RegionId r = rt.register_data("r", 64);
  std::vector<TaskId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(rt.submit(t, {Access::inout(r)}));
  }
  rt.taskwait();
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_LE(rt.task_graph().task(ids[i - 1]).finish_time,
              rt.task_graph().task(ids[i]).start_time + 1e-12);
  }
}

TEST(VersioningInternals, CompletionRepricesOncePerMeanMove) {
  // 4 identical independent tasks on 4 identical workers with λ=4 are all
  // placed (as learning samples) in the first ready batch, before any
  // completion. Each of the 4 completions moves the mean of the same
  // price key (same type, chosen version, size group), and every move
  // re-prices the load account at once: one LoadAccount::reprice per
  // request, none left pending for a later decision to apply.
  const Machine machine = make_smp_machine(4);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.profile.lambda = 4;
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "smp", nullptr,
                 make_constant_cost(1e-3));
  for (int i = 0; i < 4; ++i) {
    const RegionId r = rt.register_data("r" + std::to_string(i), 64);
    rt.submit(t, {Access::inout(r)});
  }
  rt.taskwait();
  EXPECT_EQ(rt.run_stats().total_tasks(), 4u);

  auto* qs = dynamic_cast<QueueScheduler*>(&rt.scheduler());
  ASSERT_NE(qs, nullptr);
  EXPECT_EQ(qs->reprice_requests(), 4u);  // one per completion record
  EXPECT_EQ(qs->reprice_flushes(), 4u);
  (void)qs->estimated_busy(0);  // a decision read applies nothing further
  EXPECT_EQ(qs->reprice_flushes(), qs->reprice_requests());
}

TEST(VersioningInternals, ProfileTableReachableThroughRuntime) {
  const Machine machine = make_minotauro_node(2, 1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "gpu", nullptr, make_constant_cost(1e-3));
  rt.add_version(t, DeviceKind::kSmp, "smp", nullptr, make_constant_cost(2e-3));
  const RegionId r = rt.register_data("r", 1024);
  for (int i = 0; i < 10; ++i) {
    rt.submit(t, {Access::in(r)});
  }
  rt.taskwait();
  auto& versioning = dynamic_cast<VersioningScheduler&>(rt.scheduler());
  EXPECT_TRUE(versioning.profile().reliable(t, 1024));
  EXPECT_EQ(versioning.profile().group_count(), 1u);
  EXPECT_FALSE(versioning.profile().dump().empty());
}

}  // namespace
}  // namespace versa
