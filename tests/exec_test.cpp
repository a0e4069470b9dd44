// Edge-case tests for the execution backends: default cost fallback,
// horizon tracking, stolen-task re-acquisition, prefetch state machine,
// and per-worker noise stream independence.
#include <gtest/gtest.h>

#include "machine/presets.h"
#include "runtime/runtime.h"

namespace versa {
namespace {

TEST(SimExec, DefaultDurationCoversVersionsWithoutCostModel) {
  const Machine machine = make_smp_machine(1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "fifo";
  config.noise.kind = sim::NoiseKind::kNone;
  config.default_task_duration = 2.5e-3;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v");  // no body, no cost model
  const RegionId r = rt.register_data("r", 64);
  rt.submit(t, {Access::inout(r)});
  rt.taskwait();
  EXPECT_NEAR(rt.elapsed(), 2.5e-3, 1e-12);
}

TEST(SimExec, FlushExtendsElapsedBeyondLastTask) {
  const Machine machine = make_minotauro_node(1, 1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "fifo";
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "v", nullptr, make_constant_cost(1e-3));
  // 60 MB dirty on the GPU: the taskwait flush costs ~10 ms on PCIe,
  // dominating the 1 ms compute.
  const RegionId r = rt.register_data("r", 60'000'000);
  rt.submit(t, {Access::out(r)});
  rt.taskwait();
  EXPECT_GT(rt.elapsed(), 10e-3);
  const Time last_finish = rt.task_graph().task(0).finish_time;
  EXPECT_GT(rt.elapsed(), last_finish);
}

TEST(SimExec, StolenTaskReacquiresForTheThiefSpace) {
  // Two GPUs, affinity scheduler (stealing enabled). All tasks want data
  // living on GPU 0; the idle GPU 1 steals one and must move the data.
  const Machine machine = make_minotauro_node(1, 2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "affinity";
  config.noise.kind = sim::NoiseKind::kNone;
  config.prefetch = true;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "v", nullptr, make_constant_cost(5e-3));

  const RegionId hot = rt.register_data("hot", 1 << 20);
  // Seed locality on GPU 0's space via a first task wave.
  rt.submit(t, {Access::inout(hot)});
  rt.taskwait_noflush();

  // Two independent readers of the hot region: affinity queues both on the
  // data holder; the other GPU steals the second one.
  const RegionId a = rt.register_data("a", 1 << 10);
  const RegionId b = rt.register_data("b", 1 << 10);
  rt.submit(t, {Access::in(hot), Access::inout(a)});
  rt.submit(t, {Access::in(hot), Access::inout(b)});
  rt.taskwait_noflush();

  // Both GPUs executed something, and the hot region was replicated to
  // the thief's space (device or host-mediated transfer happened).
  std::set<WorkerId> used;
  for (const Task& task : rt.task_graph().tasks()) {
    used.insert(task.assigned_worker);
  }
  EXPECT_EQ(used.size(), 2u);
  versa::RecursiveLockGuard lock(rt.port_mutex());  // covers the directory
  EXPECT_TRUE(rt.data_directory().is_valid_in(hot, machine.worker(1).space));
  EXPECT_TRUE(rt.data_directory().is_valid_in(hot, machine.worker(2).space));
}

TEST(SimExec, WorkerNoiseStreamsAreIndependent) {
  // With noise on, two workers executing the same version must not see
  // identical duration sequences (they own separate RNG streams).
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "dep-aware";
  config.noise.kind = sim::NoiseKind::kLognormal;
  config.noise.magnitude = 0.2;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  for (int i = 0; i < 20; ++i) {
    const RegionId r = rt.register_data("r" + std::to_string(i), 64);
    rt.submit(t, {Access::inout(r)});
  }
  rt.taskwait();
  std::vector<Duration> w0, w1;
  for (const Task& task : rt.task_graph().tasks()) {
    (task.assigned_worker == 0 ? w0 : w1).push_back(task.measured_duration);
  }
  ASSERT_GE(w0.size(), 3u);
  ASSERT_GE(w1.size(), 3u);
  int equal = 0;
  for (std::size_t i = 0; i < std::min(w0.size(), w1.size()); ++i) {
    if (w0[i] == w1[i]) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(SimExec, PrefetchStartsCopiesBeforeExecution) {
  const Machine machine = make_minotauro_node(1, 1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "affinity";  // push-style: assignment precedes pop
  config.noise.kind = sim::NoiseKind::kNone;
  config.prefetch = true;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "v", nullptr, make_constant_cost(1e-3));
  const RegionId r1 = rt.register_data("r1", 6'000'000);
  const RegionId r2 = rt.register_data("r2", 6'000'000);
  rt.submit(t, {Access::in(r1)});
  rt.submit(t, {Access::in(r2)});
  rt.taskwait_noflush();
  // Task 2's copy (1 ms) overlapped task 1's compute: total ~= 1 ms copy
  // + 1 ms compute + 1 ms compute, not 2 copies + 2 computes.
  EXPECT_NEAR(rt.elapsed(), 3e-3, 0.2e-3);
}

TEST(ThreadExec, ManyWorkersManyTinyTasks) {
  const Machine machine = make_smp_machine(8);
  RuntimeConfig config;
  config.backend = Backend::kThreads;
  config.scheduler = "fifo";
  Runtime rt(machine, config);
  std::atomic<int> count{0};
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", [&](TaskContext&) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<RegionId> regions;
  for (int i = 0; i < 16; ++i) {
    regions.push_back(rt.register_data("r" + std::to_string(i), 64));
  }
  for (int i = 0; i < 500; ++i) {
    rt.submit(t, {Access::inout(regions[i % regions.size()])});
  }
  rt.taskwait();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadExec, MeasuredDurationsArePositive) {
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config;
  config.backend = Backend::kThreads;
  config.scheduler = "dep-aware";
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", [](TaskContext&) {
    volatile int sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  });
  const RegionId r = rt.register_data("r", 64);
  for (int i = 0; i < 10; ++i) {
    rt.submit(t, {Access::inout(r)});
  }
  rt.taskwait();
  for (const Task& task : rt.task_graph().tasks()) {
    EXPECT_GT(task.measured_duration, 0.0);
    EXPECT_LE(task.start_time, task.finish_time);
  }
}

}  // namespace
}  // namespace versa
