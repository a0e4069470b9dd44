// Unit tests for the scheduling layer: profile tables (Table I semantics),
// the plugin factory, the baseline policies, and the versioning scheduler's
// two phases — learning (round-robin to λ) and reliable (earliest
// executor, Figure 5) — plus the locality extension.
#include <gtest/gtest.h>

#include "machine/presets.h"
#include "sched/affinity_scheduler.h"
#include "sched/dep_aware_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "sched/locality_versioning_scheduler.h"
#include "sched/profile_table.h"
#include "sched/scheduler_factory.h"
#include "sched/versioning_scheduler.h"
#include "util/lock_order.h"

namespace versa {
namespace {

/// Minimal SchedulerContext for driving policies without a full runtime.
class TestContext : public SchedulerContext {
 public:
  explicit TestContext(Machine machine)
      : machine_(std::move(machine)), directory_(machine_) {}

  const Machine& machine() const override { return machine_; }
  const VersionRegistry& registry() const override { return registry_; }
  DataDirectory& directory() override { return directory_; }
  TaskGraph& graph() override { return graph_; }
  Time now() const override { return now_; }
  void task_assigned(TaskId task, WorkerId worker) override {
    assignments.emplace_back(task, worker);
  }

  Task& make_ready_task(TaskTypeId type, std::uint64_t size,
                        AccessList accesses = {}) {
    for (Access& a : accesses) {
      if (a.length == 0) a.length = directory_.region(a.region).size;
    }
    Task& task = graph_.create_task(type, std::move(accesses), size, "");
    task.state = TaskState::kReady;
    return task;
  }

  /// Pop, "run", and complete a task on `worker` with a fixed duration.
  TaskId run_one(Scheduler& sched, WorkerId worker, Duration duration) {
    const TaskId id = sched.pop_task(worker);
    if (id == kInvalidTask) return id;
    Task& task = graph_.task(id);
    task.state = TaskState::kRunning;
    std::vector<TaskId> ready;
    graph_.mark_finished(id, now_ += duration, ready);
    sched.task_completed(task, worker, duration);
    return id;
  }

  VersionRegistry registry_;
  Machine machine_;
  DataDirectory directory_;
  TaskGraph graph_;
  Time now_ = 0.0;
  std::vector<std::pair<TaskId, WorkerId>> assignments;
};

// --- ProfileTable ---------------------------------------------------------

TEST(ProfileTable, ExactGroupingSeparatesSizes) {
  VersionRegistry reg;
  const TaskTypeId t = reg.declare_task("t");
  const VersionId v = reg.add_version(t, DeviceKind::kSmp, "v", nullptr, nullptr);
  ProfileTable table(reg, {});
  table.record(t, v, 1000, 1.0);
  table.record(t, v, 1001, 3.0);
  EXPECT_EQ(table.count(t, v, 1000), 1u);
  EXPECT_EQ(table.count(t, v, 1001), 1u);
  EXPECT_DOUBLE_EQ(*table.mean(t, v, 1000), 1.0);
  EXPECT_EQ(table.group_count(), 2u);
}

TEST(ProfileTable, RangeGroupingJoinsSimilarSizes) {
  VersionRegistry reg;
  const TaskTypeId t = reg.declare_task("t");
  const VersionId v = reg.add_version(t, DeviceKind::kSmp, "v", nullptr, nullptr);
  ProfileConfig config;
  config.grouping = SizeGrouping::kRange;
  config.range_ratio = 1.25;
  ProfileTable table(reg, config);
  // 1000 and 1001 fall in the same log bucket; 4000 does not.
  EXPECT_EQ(table.group_key(1000), table.group_key(1001));
  EXPECT_NE(table.group_key(1000), table.group_key(4000));
  table.record(t, v, 1000, 1.0);
  EXPECT_EQ(table.count(t, v, 1001), 1u);
}

// nearest_group_mean is the busy-accounting fallback for unprofiled
// (type, size) groups; its selection rule is part of the deterministic
// contract documented in profile_table.h.

TEST(ProfileTableNearestGroup, SingleGroupServesEveryQuery) {
  VersionRegistry reg;
  const TaskTypeId t = reg.declare_task("t");
  const VersionId v = reg.add_version(t, DeviceKind::kSmp, "v", nullptr, nullptr);
  ProfileTable table(reg, {});
  table.record(t, v, 1000, 2.5);
  // Any query key — below, at, far above — falls back to the only group.
  EXPECT_DOUBLE_EQ(*table.nearest_group_mean(t, v, 1), 2.5);
  EXPECT_DOUBLE_EQ(*table.nearest_group_mean(t, v, 1000), 2.5);
  EXPECT_DOUBLE_EQ(*table.nearest_group_mean(t, v, 1'000'000'000), 2.5);
}

TEST(ProfileTableNearestGroup, ExactMidpointTieBreaksToSmallerKey) {
  VersionRegistry reg;
  const TaskTypeId t = reg.declare_task("t");
  const VersionId v = reg.add_version(t, DeviceKind::kSmp, "v", nullptr, nullptr);
  ProfileTable table(reg, {});
  table.record(t, v, 1000, 1.0);
  table.record(t, v, 3000, 9.0);
  // 2000 is equidistant from both groups: the smaller key (1000) wins.
  EXPECT_DOUBLE_EQ(*table.nearest_group_mean(t, v, 2000), 1.0);
  // Off the midpoint the strictly nearest group wins in either direction.
  EXPECT_DOUBLE_EQ(*table.nearest_group_mean(t, v, 1999), 1.0);
  EXPECT_DOUBLE_EQ(*table.nearest_group_mean(t, v, 2001), 9.0);
}

TEST(ProfileTableNearestGroup, IgnoresGroupsWithoutTheVersion) {
  VersionRegistry reg;
  const TaskTypeId t = reg.declare_task("t");
  const VersionId v1 = reg.add_version(t, DeviceKind::kCuda, "a", nullptr, nullptr);
  const VersionId v2 = reg.add_version(t, DeviceKind::kSmp, "b", nullptr, nullptr);
  ProfileTable table(reg, {});
  table.record(t, v1, 1000, 1.0);  // near, but only for v1
  table.record(t, v2, 9000, 7.0);
  EXPECT_DOUBLE_EQ(*table.nearest_group_mean(t, v2, 1100), 7.0);
  const VersionId v3 = reg.add_version(t, DeviceKind::kSmp, "c", nullptr, nullptr);
  EXPECT_FALSE(table.nearest_group_mean(t, v3, 1000).has_value());
}

TEST(ProfileTable, MeanAveragesObservations) {
  VersionRegistry reg;
  const TaskTypeId t = reg.declare_task("t");
  const VersionId v = reg.add_version(t, DeviceKind::kSmp, "v", nullptr, nullptr);
  ProfileTable table(reg, {});
  table.record(t, v, 100, 2.0);
  table.record(t, v, 100, 4.0);
  EXPECT_DOUBLE_EQ(*table.mean(t, v, 100), 3.0);
  EXPECT_FALSE(table.mean(t, v, 200).has_value());
}

TEST(ProfileTable, ReliableNeedsLambdaRunsOfEveryVersion) {
  VersionRegistry reg;
  const TaskTypeId t = reg.declare_task("t");
  const VersionId v1 = reg.add_version(t, DeviceKind::kCuda, "a", nullptr, nullptr);
  const VersionId v2 = reg.add_version(t, DeviceKind::kSmp, "b", nullptr, nullptr);
  ProfileConfig config;
  config.lambda = 2;
  ProfileTable table(reg, config);
  table.record(t, v1, 100, 1.0);
  table.record(t, v1, 100, 1.0);
  EXPECT_FALSE(table.reliable(t, 100));  // v2 never ran
  table.record(t, v2, 100, 1.0);
  EXPECT_FALSE(table.reliable(t, 100));  // v2 only once
  table.record(t, v2, 100, 1.0);
  EXPECT_TRUE(table.reliable(t, 100));
  EXPECT_FALSE(table.reliable(t, 999));  // other group unaffected
}

TEST(ProfileTable, FastestVersion) {
  VersionRegistry reg;
  const TaskTypeId t = reg.declare_task("t");
  const VersionId slow = reg.add_version(t, DeviceKind::kSmp, "slow", nullptr, nullptr);
  const VersionId fast = reg.add_version(t, DeviceKind::kCuda, "fast", nullptr, nullptr);
  ProfileTable table(reg, {});
  EXPECT_FALSE(table.fastest_version(t, 100).has_value());
  table.record(t, slow, 100, 10.0);
  table.record(t, fast, 100, 1.0);
  EXPECT_EQ(*table.fastest_version(t, 100), fast);
}

TEST(ProfileTable, PrimeSeedsMeanAndCount) {
  VersionRegistry reg;
  const TaskTypeId t = reg.declare_task("t");
  const VersionId v = reg.add_version(t, DeviceKind::kSmp, "v", nullptr, nullptr);
  ProfileTable table(reg, {});
  table.prime(t, v, table.group_key(100), 5.0, 3);
  EXPECT_EQ(table.count(t, v, 100), 3u);
  EXPECT_DOUBLE_EQ(*table.mean(t, v, 100), 5.0);
  EXPECT_TRUE(table.reliable(t, 100));
}

TEST(ProfileTable, DumpMentionsVersionNames) {
  VersionRegistry reg;
  const TaskTypeId t = reg.declare_task("matmul_tile");
  const VersionId v = reg.add_version(t, DeviceKind::kCuda, "cublas", nullptr, nullptr);
  ProfileTable table(reg, {});
  table.record(t, v, 8 << 20, 5e-3);
  const std::string dump = table.dump();
  EXPECT_NE(dump.find("matmul_tile"), std::string::npos);
  EXPECT_NE(dump.find("cublas"), std::string::npos);
}

TEST(ProfileTable, EmaConfigPropagates) {
  VersionRegistry reg;
  const TaskTypeId t = reg.declare_task("t");
  const VersionId v = reg.add_version(t, DeviceKind::kSmp, "v", nullptr, nullptr);
  ProfileConfig config;
  config.mean_kind = MeanKind::kExponential;
  config.ema_alpha = 0.9;
  ProfileTable table(reg, config);
  table.record(t, v, 100, 1.0);
  for (int i = 0; i < 10; ++i) table.record(t, v, 100, 9.0);
  EXPECT_GT(*table.mean(t, v, 100), 8.5);  // recent-dominated
}

// --- factory ---------------------------------------------------------------

TEST(SchedulerFactory, MakesEveryAdvertisedScheduler) {
  for (const std::string& name : scheduler_names()) {
    const auto sched = make_scheduler(name);
    ASSERT_NE(sched, nullptr) << name;
    EXPECT_EQ(sched->name(), name);
  }
}

TEST(SchedulerFactory, UnknownNameIsNull) {
  EXPECT_EQ(make_scheduler("no-such-policy"), nullptr);
}

// --- baseline policies -------------------------------------------------------

TEST(Fifo, ServesOldestCompatibleTask) {
  TestContext ctx(make_minotauro_node(1, 1));
  const TaskTypeId gpu_task = ctx.registry_.declare_task("g");
  ctx.registry_.add_version(gpu_task, DeviceKind::kCuda, "v", nullptr, nullptr);
  const TaskTypeId cpu_task = ctx.registry_.declare_task("c");
  ctx.registry_.add_version(cpu_task, DeviceKind::kSmp, "v", nullptr, nullptr);

  FifoScheduler sched;
  sched.attach(ctx);
  Task& t0 = ctx.make_ready_task(gpu_task, 0);
  Task& t1 = ctx.make_ready_task(cpu_task, 0);
  Task& t2 = ctx.make_ready_task(gpu_task, 0);
  sched.task_ready(t0);
  sched.task_ready(t1);
  sched.task_ready(t2);

  // Worker 0 is SMP: skips GPU tasks and takes t1.
  EXPECT_EQ(sched.pop_task(0), t1.id);
  // Worker 1 is the GPU: takes t0 then t2, in order.
  EXPECT_EQ(sched.pop_task(1), t0.id);
  EXPECT_EQ(sched.pop_task(1), t2.id);
  EXPECT_EQ(sched.pop_task(1), kInvalidTask);
  EXPECT_FALSE(sched.has_pending());
}

TEST(Fifo, ChoosesMainVersion) {
  TestContext ctx(make_minotauro_node(1, 1));
  const TaskTypeId t = ctx.registry_.declare_task("t");
  const VersionId main =
      ctx.registry_.add_version(t, DeviceKind::kCuda, "main", nullptr, nullptr);
  ctx.registry_.add_version(t, DeviceKind::kSmp, "alt", nullptr, nullptr);

  FifoScheduler sched;
  sched.attach(ctx);
  Task& task = ctx.make_ready_task(t, 0);
  sched.task_ready(task);
  // The baseline ignores `implements` versions: the SMP worker gets nothing.
  EXPECT_EQ(sched.pop_task(0), kInvalidTask);
  EXPECT_EQ(sched.pop_task(1), task.id);
  EXPECT_EQ(task.chosen_version, main);
}

TEST(DepAware, FollowsChainsOntoReleasingWorker) {
  TestContext ctx(make_minotauro_node(4, 0));
  const TaskTypeId t = ctx.registry_.declare_task("t");
  ctx.registry_.add_version(t, DeviceKind::kSmp, "v", nullptr, nullptr);

  DepAwareScheduler sched;
  sched.attach(ctx);
  Task& head = ctx.make_ready_task(t, 0);
  sched.task_ready(head);
  const WorkerId worker = head.assigned_worker;
  ASSERT_NE(worker, kInvalidWorker);

  // Simulate completion on that worker, then release the successor.
  ctx.run_one(sched, worker, 1.0);
  Task& next = ctx.make_ready_task(t, 0);
  sched.task_ready(next);
  EXPECT_EQ(next.assigned_worker, worker);  // chain continues
}

TEST(DepAware, IncompatibleChainFallsBackToLeastLoaded) {
  TestContext ctx(make_minotauro_node(2, 1));
  const TaskTypeId gpu_task = ctx.registry_.declare_task("g");
  ctx.registry_.add_version(gpu_task, DeviceKind::kCuda, "v", nullptr, nullptr);
  const TaskTypeId cpu_task = ctx.registry_.declare_task("c");
  ctx.registry_.add_version(cpu_task, DeviceKind::kSmp, "v", nullptr, nullptr);

  DepAwareScheduler sched;
  sched.attach(ctx);
  Task& gpu_head = ctx.make_ready_task(gpu_task, 0);
  sched.task_ready(gpu_head);
  ctx.run_one(sched, gpu_head.assigned_worker, 1.0);

  // Released task only has an SMP version: must not go to the GPU worker.
  Task& cpu_next = ctx.make_ready_task(cpu_task, 0);
  sched.task_ready(cpu_next);
  EXPECT_EQ(ctx.machine_.worker(cpu_next.assigned_worker).kind,
            DeviceKind::kSmp);
}

TEST(Affinity, PrefersSpaceHoldingTheData) {
  TestContext ctx(make_minotauro_node(1, 2));
  const TaskTypeId t = ctx.registry_.declare_task("t");
  ctx.registry_.add_version(t, DeviceKind::kCuda, "v", nullptr, nullptr);
  const RegionId r = ctx.directory_.register_region("r", 1 << 20);

  // Put the data on GPU 1 (worker 2).
  const SpaceId gpu1_space = ctx.machine_.worker(2).space;
  TransferList ops;
  ctx.directory_.acquire({Access::inout_range(r, 0, 1 << 20)}, gpu1_space, ops);

  AffinityScheduler sched;
  sched.attach(ctx);
  Task& task = ctx.make_ready_task(t, 1 << 20, {Access::in(r)});
  sched.task_ready(task);
  EXPECT_EQ(task.assigned_worker, 2u);
}

TEST(Affinity, TieBreaksByQueueLength) {
  TestContext ctx(make_minotauro_node(1, 2));
  const TaskTypeId t = ctx.registry_.declare_task("t");
  ctx.registry_.add_version(t, DeviceKind::kCuda, "v", nullptr, nullptr);

  AffinityScheduler sched;
  sched.attach(ctx);
  // No data anywhere: both GPUs miss everything equally; queue length
  // decides, so assignments alternate.
  Task& a = ctx.make_ready_task(t, 0);
  sched.task_ready(a);
  Task& b = ctx.make_ready_task(t, 0);
  sched.task_ready(b);
  EXPECT_NE(a.assigned_worker, b.assigned_worker);
}

TEST(QueueSchedulerStealing, IdleSameKindWorkerSteals) {
  TestContext ctx(make_minotauro_node(1, 2));
  const TaskTypeId t = ctx.registry_.declare_task("t");
  ctx.registry_.add_version(t, DeviceKind::kCuda, "v", nullptr, nullptr);
  const RegionId r = ctx.directory_.register_region("r", 1 << 20);
  const SpaceId gpu0_space = ctx.machine_.worker(1).space;
  TransferList ops;
  ctx.directory_.acquire({Access::inout_range(r, 0, 1 << 20)}, gpu0_space, ops);

  AffinityScheduler sched;
  sched.attach(ctx);
  // Both tasks want the data on GPU 0 -> both queue on worker 1.
  Task& a = ctx.make_ready_task(t, 1 << 20, {Access::in(r)});
  Task& b = ctx.make_ready_task(t, 1 << 20, {Access::in(r)});
  sched.task_ready(a);
  sched.task_ready(b);
  EXPECT_EQ(sched.queue_length(1), 2u);
  EXPECT_TRUE(sched.has_pending());

  // Worker 2 (the other GPU) is idle: it steals from worker 1's tail.
  const TaskId stolen = sched.pop_task(2);
  EXPECT_EQ(stolen, b.id);
  // Since the lock split, the steal path never touches the task graph:
  // re-homing Task::assigned_worker is the executor's job, done under the
  // runtime lock when the stolen task starts. Here the scheduler only
  // moved the queue entry.
  EXPECT_EQ(sched.queue_length(1), 1u);
  EXPECT_TRUE(sched.has_pending()) << "one entry still queued";
  // The SMP worker cannot steal GPU work.
  EXPECT_EQ(sched.pop_task(0), kInvalidTask);
  // The victim keeps its head-of-queue task.
  EXPECT_EQ(sched.pop_task(1), a.id);
  EXPECT_FALSE(sched.has_pending()) << "drained";
}

/// Queue policy that pushes every ready task to `target`: task_ready is
/// push_to_worker and nothing else.
class PushToTarget final : public QueueScheduler {
 public:
  PushToTarget() { set_stealing(true); }
  const char* name() const override { return "push-to-target"; }
  void task_ready(Task& task) override {
    push_to_worker(task, ctx_->registry().main_version(task.type), target);
  }
  WorkerId target = 1;
};

/// Lock acquisitions `op` takes on the calling thread, over every class.
template <typename Op>
std::uint64_t locks_taken(Op&& op) {
  const auto total = [] {
    std::uint64_t sum = 0;
    for (const lock_order::LockClass* cls :
         {&lock_order::kLockRankService, &lock_order::kLockRankRuntime,
          &lock_order::kLockRankData, &lock_order::kLockRankAccount,
          &lock_order::kLockRankQueue, &lock_order::kLockRankExecWake}) {
      sum += lock_order::acquisitions(*cls);
    }
    return sum;
  };
  const std::uint64_t before = total();
  op();
  return total() - before;
}

TEST(QueueSchedulerLockBudget, EachQueueOpStaysWithinItsBudget) {
  // Count, don't time: a push charges the account then inserts under the
  // target's shard lock; a pop hit takes the shard then the account; a
  // steal probes its own empty shard, the victim's shard and the account;
  // a completion settles the account; a miss takes only its own shard. An
  // added round trip on any of these paths fails here.
  const bool was_enforced = lock_order::enforced();
  lock_order::set_enforced(true);
  TestContext ctx(make_minotauro_node(1, 2));  // worker 0 SMP, 1-2 GPUs
  const TaskTypeId t = ctx.registry_.declare_task("t");
  ctx.registry_.add_version(t, DeviceKind::kCuda, "v", nullptr, nullptr);
  PushToTarget sched;
  sched.attach(ctx);
  Task& a = ctx.make_ready_task(t, 0);
  Task& b = ctx.make_ready_task(t, 0);
  TaskId popped = kInvalidTask;
  EXPECT_EQ(locks_taken([&] { sched.task_ready(a); }), 2u) << "push";
  EXPECT_EQ(locks_taken([&] { sched.task_ready(b); }), 2u) << "push";
  EXPECT_EQ(locks_taken([&] { popped = sched.try_pop_queued(1); }), 2u);
  EXPECT_EQ(popped, a.id) << "pop hit";
  EXPECT_EQ(locks_taken([&] { popped = sched.try_pop_queued(2); }), 3u);
  EXPECT_EQ(popped, b.id) << "steal";
  EXPECT_EQ(locks_taken([&] { sched.task_completed(a, 1, 1.0); }), 1u);
  EXPECT_EQ(locks_taken([&] { popped = sched.try_pop_queued(2); }), 1u);
  EXPECT_EQ(popped, kInvalidTask) << "miss";
  lock_order::set_enforced(was_enforced);
}

// --- versioning scheduler ----------------------------------------------------

class VersioningTest : public ::testing::Test {
 protected:
  VersioningTest() : ctx_(make_minotauro_node(2, 1)) {
    // Workers 0,1 = SMP; worker 2 = GPU.
    type_ = ctx_.registry_.declare_task("work");
    gpu_ = ctx_.registry_.add_version(type_, DeviceKind::kCuda, "gpu", nullptr,
                                      nullptr);
    smp_ = ctx_.registry_.add_version(type_, DeviceKind::kSmp, "smp", nullptr,
                                      nullptr);
  }

  /// Drive `n` ready tasks through the scheduler, completing each
  /// immediately on its assigned worker with a duration depending on the
  /// chosen version.
  void run_tasks(VersioningScheduler& sched, int n, Duration gpu_time,
                 Duration smp_time, std::uint64_t size = 1000) {
    for (int i = 0; i < n; ++i) {
      Task& task = ctx_.make_ready_task(type_, size);
      sched.task_ready(task);
      const WorkerId w = task.assigned_worker;
      ASSERT_NE(w, kInvalidWorker);
      const Duration d = task.chosen_version == gpu_ ? gpu_time : smp_time;
      ASSERT_EQ(ctx_.run_one(sched, w, d), task.id);
    }
  }

  TestContext ctx_;
  TaskTypeId type_;
  VersionId gpu_, smp_;
};

TEST_F(VersioningTest, LearningPhaseSamplesEveryVersionLambdaTimes) {
  ProfileConfig config;
  config.lambda = 3;
  VersioningScheduler sched(config);
  sched.attach(ctx_);

  run_tasks(sched, 6, 1e-3, 10e-3);
  EXPECT_EQ(sched.profile().count(type_, gpu_, 1000), 3u);
  EXPECT_EQ(sched.profile().count(type_, smp_, 1000), 3u);
  EXPECT_TRUE(sched.profile().reliable(type_, 1000));
}

TEST_F(VersioningTest, ReliablePhasePicksFastestWhenIdle) {
  ProfileConfig config;
  config.lambda = 1;
  VersioningScheduler sched(config);
  sched.attach(ctx_);
  run_tasks(sched, 2, 1e-3, 10e-3);  // learning: one of each
  ASSERT_TRUE(sched.profile().reliable(type_, 1000));

  // All workers idle: the GPU version is 10x faster -> earliest executor.
  Task& task = ctx_.make_ready_task(type_, 1000);
  sched.task_ready(task);
  EXPECT_EQ(task.chosen_version, gpu_);
  EXPECT_EQ(ctx_.machine_.worker(task.assigned_worker).kind,
            DeviceKind::kCuda);
}

TEST_F(VersioningTest, BusyFastWorkerLosesToIdleSlowWorker) {
  // The Figure 5 scenario: the GPU is the fastest executor but its queue
  // is long; an idle SMP worker finishes the task earlier.
  ProfileConfig config;
  config.lambda = 1;
  VersioningScheduler sched(config);
  sched.attach(ctx_);
  run_tasks(sched, 2, 1e-3, 3e-3);  // gpu 1 ms, smp 3 ms

  // Enqueue (without completing) enough GPU work to make its estimated
  // busy time exceed the SMP mean.
  std::vector<TaskId> queued;
  for (int i = 0; i < 5; ++i) {
    Task& task = ctx_.make_ready_task(type_, 1000);
    sched.task_ready(task);
    queued.push_back(task.id);
  }
  // First picks go to the GPU until its backlog passes 3 ms, then SMP
  // workers start receiving tasks.
  int gpu_count = 0, smp_count = 0;
  for (TaskId id : queued) {
    const Task& task = ctx_.graph_.task(id);
    if (task.chosen_version == gpu_) {
      ++gpu_count;
    } else {
      ++smp_count;
    }
  }
  EXPECT_GE(gpu_count, 2);
  EXPECT_GE(smp_count, 1);  // the overflow went to idle SMP workers
  EXPECT_GT(sched.estimated_busy(2), 0.0);
}

TEST_F(VersioningTest, NewDataSizeReentersLearning) {
  ProfileConfig config;
  config.lambda = 2;
  VersioningScheduler sched(config);
  sched.attach(ctx_);
  run_tasks(sched, 4, 1e-3, 10e-3);
  ASSERT_TRUE(sched.profile().reliable(type_, 1000));

  // A different data-set size has no information: learning again.
  EXPECT_FALSE(sched.profile().reliable(type_, 5000));
  run_tasks(sched, 4, 1e-3, 10e-3, /*size=*/5000);
  EXPECT_TRUE(sched.profile().reliable(type_, 5000));
  EXPECT_EQ(sched.profile().count(type_, gpu_, 5000), 2u);
}

TEST_F(VersioningTest, BusyAccountingDrainsOnCompletion) {
  ProfileConfig config;
  config.lambda = 1;
  VersioningScheduler sched(config);
  sched.attach(ctx_);
  run_tasks(sched, 2, 1e-3, 3e-3);
  for (WorkerId w = 0; w < 3; ++w) {
    EXPECT_NEAR(sched.estimated_busy(w), 0.0, 1e-12) << w;
  }
  EXPECT_FALSE(sched.has_pending());

  // A new size group relearns: with λ = 1 each version takes one learning
  // run and a third task waits in the pool, which alone keeps work
  // pending once the queues are empty.
  Task& a = ctx_.make_ready_task(type_, 5000);
  Task& b = ctx_.make_ready_task(type_, 5000);
  Task& c = ctx_.make_ready_task(type_, 5000);
  sched.task_ready(a);
  sched.task_ready(b);
  sched.task_ready(c);
  EXPECT_EQ(c.assigned_worker, kInvalidWorker) << "pooled";
  EXPECT_EQ(sched.pop_task(a.assigned_worker), a.id);
  EXPECT_EQ(sched.pop_task(b.assigned_worker), b.id);
  EXPECT_TRUE(sched.has_pending()) << "the pool holds c";
  EXPECT_EQ(sched.pop_task(a.assigned_worker), c.id) << "pulled from pool";
  EXPECT_FALSE(sched.has_pending()) << "drained";
}

TEST_F(VersioningTest, PoolDrainPlacesFreedGroupInOrderAndKeepsBlockedOrder) {
  // Two size groups of one type, λ = 1: each group's two learning runs
  // (one per version) go out at once, and later tasks wait in the pool,
  // alternating A, B, A, B. A stays blocked behind its in-flight runs;
  // B's second completion makes it reliable.
  ProfileConfig config;
  config.lambda = 1;
  VersioningScheduler sched(config);
  sched.attach(ctx_);
  const auto ready = [&](std::uint64_t size) -> Task& {
    Task& task = ctx_.make_ready_task(type_, size);
    sched.task_ready(task);
    return task;
  };
  const auto complete = [&](Task& task, Duration duration) {
    task.state = TaskState::kRunning;
    std::vector<TaskId> next;
    ctx_.graph_.mark_finished(task.id, ctx_.now_ += duration, next);
    sched.task_completed(task, task.assigned_worker, duration);
  };
  Task& a1 = ready(1000);
  Task& a2 = ready(1000);
  Task& b1 = ready(5000);
  Task& b2 = ready(5000);
  Task& a3 = ready(1000);
  Task& b3 = ready(5000);
  Task& a4 = ready(1000);
  Task& b4 = ready(5000);
  for (const Task* pooled : {&a3, &b3, &a4, &b4}) {
    ASSERT_EQ(pooled->assigned_worker, kInvalidWorker) << pooled->id;
  }
  // Start every learning run (GPU runs queue on the one GPU worker).
  for (Task* run : {&a1, &a2, &b1, &b2}) {
    ASSERT_EQ(sched.pop_task(run->assigned_worker), run->id);
  }
  Task& b_gpu = b1.chosen_version == gpu_ ? b1 : b2;
  Task& b_smp = b1.chosen_version == gpu_ ? b2 : b1;
  complete(b_gpu, 1e-3);
  EXPECT_EQ(b3.assigned_worker, kInvalidWorker) << "B still learning";

  const std::size_t before = ctx_.assignments.size();
  complete(b_smp, 3e-3);
  // B's tasks were placed in pool order, A's still wait.
  ASSERT_EQ(ctx_.assignments.size(), before + 2);
  EXPECT_EQ(ctx_.assignments[before].first, b3.id);
  EXPECT_EQ(ctx_.assignments[before + 1].first, b4.id);
  EXPECT_EQ(a3.assigned_worker, kInvalidWorker);
  EXPECT_EQ(a4.assigned_worker, kInvalidWorker);
  // Both B tasks went to the 1 ms GPU: the SMP workers' queues are empty,
  // so their pops pull A's tasks from the pool in their original order.
  ASSERT_EQ(b3.chosen_version, gpu_);
  ASSERT_EQ(b4.chosen_version, gpu_);
  EXPECT_EQ(sched.pop_task(0), a3.id);
  EXPECT_EQ(sched.pop_task(1), a4.id);
}

TEST_F(VersioningTest, PoolPullSkipsTasksWithNoVersionForTheWorkerKind) {
  // A GPU-only type at the pool's head: an idle SMP worker skips it and
  // pulls the first pooled task whose type has an SMP version.
  const TaskTypeId gpu_only = ctx_.registry_.declare_task("gpu_only");
  ctx_.registry_.add_version(gpu_only, DeviceKind::kCuda, "gpu", nullptr,
                             nullptr);
  ProfileConfig config;
  config.lambda = 1;
  VersioningScheduler sched(config);
  sched.attach(ctx_);
  Task& c1 = ctx_.make_ready_task(gpu_only, 1000);
  Task& c2 = ctx_.make_ready_task(gpu_only, 1000);
  Task& t1 = ctx_.make_ready_task(type_, 1000);
  Task& t2 = ctx_.make_ready_task(type_, 1000);
  Task& t3 = ctx_.make_ready_task(type_, 1000);
  for (Task* task : {&c1, &c2, &t1, &t2, &t3}) sched.task_ready(*task);
  ASSERT_EQ(c2.assigned_worker, kInvalidWorker) << "c1 holds the GPU slot";
  ASSERT_EQ(t3.assigned_worker, kInvalidWorker) << "t1, t2 learn";
  const Task& t_smp = t1.chosen_version == smp_ ? t1 : t2;
  const WorkerId idle = t_smp.assigned_worker == 0 ? 1 : 0;
  ASSERT_EQ(sched.queue_length(idle), 0u);
  EXPECT_EQ(sched.pop_task(idle), t3.id);
  EXPECT_EQ(t3.chosen_version, smp_);
  EXPECT_EQ(c2.assigned_worker, kInvalidWorker) << "c2 stays pooled";
  EXPECT_TRUE(sched.has_pending());
}

TEST_F(VersioningTest, ProfileKeepsLearningInReliablePhase) {
  ProfileConfig config;
  config.lambda = 1;
  VersioningScheduler sched(config);
  sched.attach(ctx_);
  run_tasks(sched, 2, 1e-3, 3e-3);
  const std::uint64_t before = sched.profile().count(type_, gpu_, 1000);
  run_tasks(sched, 4, 1e-3, 3e-3);
  EXPECT_GT(sched.profile().count(type_, gpu_, 1000) +
                sched.profile().count(type_, smp_, 1000),
            before + 1);
}

TEST(VersioningSingleDevice, WorksWithOnlySmpWorkers) {
  TestContext ctx(make_smp_machine(2));
  const TaskTypeId t = ctx.registry_.declare_task("t");
  const VersionId smp =
      ctx.registry_.add_version(t, DeviceKind::kSmp, "v", nullptr, nullptr);
  ProfileConfig config;
  config.lambda = 1;
  VersioningScheduler sched(config);
  sched.attach(ctx);
  for (int i = 0; i < 4; ++i) {
    Task& task = ctx.make_ready_task(t, 100);
    sched.task_ready(task);
    EXPECT_EQ(task.chosen_version, smp);
    ctx.run_one(sched, task.assigned_worker, 1e-3);
  }
}

TEST(VersioningUnrunnableVersion, FallsBackToRunnableVersions) {
  // A version targeting a device kind with no workers must not wedge the
  // learning phase.
  TestContext ctx(make_smp_machine(2));
  const TaskTypeId t = ctx.registry_.declare_task("t");
  ctx.registry_.add_version(t, DeviceKind::kCuda, "gpu", nullptr, nullptr);
  const VersionId smp =
      ctx.registry_.add_version(t, DeviceKind::kSmp, "smp", nullptr, nullptr);
  ProfileConfig config;
  config.lambda = 1;
  VersioningScheduler sched(config);
  sched.attach(ctx);
  for (int i = 0; i < 3; ++i) {
    Task& task = ctx.make_ready_task(t, 100);
    sched.task_ready(task);
    EXPECT_EQ(task.chosen_version, smp);
    ctx.run_one(sched, task.assigned_worker, 1e-3);
  }
}

TEST(LocalityVersioning, PenaltyBreaksTieTowardDataHolder) {
  TestContext ctx(make_minotauro_node(1, 2));
  const TaskTypeId t = ctx.registry_.declare_task("t");
  const VersionId gpu =
      ctx.registry_.add_version(t, DeviceKind::kCuda, "gpu", nullptr, nullptr);
  const RegionId r = ctx.directory_.register_region("r", 64 << 20);

  ProfileConfig config;
  config.lambda = 1;
  LocalityVersioningScheduler sched(config);
  sched.attach(ctx);

  // Learn the version once (goes to some GPU). Mimic the executor's data
  // acquire so the directory knows where the data ended up.
  Task& warmup = ctx.make_ready_task(t, 64 << 20, {Access::inout(r)});
  sched.task_ready(warmup);
  const WorkerId holder = warmup.assigned_worker;
  TransferList ops;
  ctx.directory_.acquire(warmup.accesses, ctx.machine_.worker(holder).space,
                         ops);
  ctx.run_one(sched, holder, 1e-3);
  // Pick the non-holder GPU as a control: it must be missing the data.
  const WorkerId other = holder == 1 ? 2 : 1;
  ASSERT_GT(ctx.directory_.bytes_missing(warmup.accesses,
                                         ctx.machine_.worker(other).space),
            0u);

  // The data now lives on `holder`'s GPU; with equal means and equal
  // (zero) busy, the transfer penalty must steer the next task there.
  Task& task = ctx.make_ready_task(t, 64 << 20, {Access::inout(r)});
  sched.task_ready(task);
  EXPECT_EQ(task.assigned_worker, holder);
  EXPECT_EQ(task.chosen_version, gpu);
}

}  // namespace
}  // namespace versa
