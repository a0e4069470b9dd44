// Integration tests for the real-thread backend: functional correctness of
// dependence-ordered execution with actually-executing bodies, nested task
// submission, and versioning on measured wall-clock durations.
#include <gtest/gtest.h>

#include <string>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "machine/presets.h"
#include "runtime/runtime.h"
#include "util/lock_order.h"

namespace versa {
namespace {

RuntimeConfig thread_config(const std::string& scheduler = "versioning") {
  RuntimeConfig config;
  config.backend = Backend::kThreads;
  config.scheduler = scheduler;
  return config;
}

TEST(RuntimeThreadsLockBudget, TaskStartTakesOneDataLock) {
  // One worker runs both tasks, so the `data` lock acquisitions its thread
  // made between the two body entries are exactly the second task's
  // start: DataDirectory::acquire stages the data and resolves the body's
  // arguments in the same critical section, whatever the access count.
  const bool was_enforced = lock_order::enforced();
  lock_order::set_enforced(true);
  for (std::size_t k : {1u, 8u, 64u}) {
    const Machine machine = make_smp_machine(1);
    Runtime rt(machine, thread_config());
    std::vector<std::uint64_t> at_entry;  // written by the one worker only
    const TaskTypeId t = rt.declare_task("t");
    rt.add_version(t, DeviceKind::kSmp, "v", [&](TaskContext&) {
      at_entry.push_back(lock_order::acquisitions(lock_order::kLockRankData));
    });
    AccessList accesses;
    for (std::size_t i = 0; i < k; ++i) {
      accesses.push_back(
          Access::in(rt.register_data("r" + std::to_string(i), 64)));
    }
    rt.submit(t, {accesses.front()});
    rt.submit(t, accesses);
    rt.taskwait_noflush();
    ASSERT_EQ(at_entry.size(), 2u);
    EXPECT_EQ(at_entry[1] - at_entry[0], 1u) << k << " accesses";
  }
  lock_order::set_enforced(was_enforced);
}

TEST(RuntimeThreads, ChainOfIncrementsIsSequential) {
  const Machine machine = make_smp_machine(4);
  Runtime rt(machine, thread_config());
  long counter = 0;
  const RegionId r = rt.register_data("counter", sizeof(counter), &counter);
  const TaskTypeId t = rt.declare_task("inc");
  rt.add_version(t, DeviceKind::kSmp, "v", [](TaskContext& ctx) {
    auto* value = static_cast<long*>(ctx.arg(0));
    *value = *value * 2 + 1;  // non-commutative: order matters
  });
  for (int i = 0; i < 12; ++i) {
    rt.submit(t, {Access::inout(r)});
  }
  rt.taskwait();
  // f(x) = 2x + 1 applied 12 times to 0 gives 2^12 - 1.
  EXPECT_EQ(counter, (1L << 12) - 1);
}

TEST(RuntimeThreads, IndependentTasksAllExecute) {
  const Machine machine = make_smp_machine(4);
  Runtime rt(machine, thread_config());
  constexpr int kTasks = 64;
  std::vector<int> cells(kTasks, 0);
  const TaskTypeId t = rt.declare_task("fill");
  rt.add_version(t, DeviceKind::kSmp, "v", [](TaskContext& ctx) {
    *static_cast<int*>(ctx.arg(0)) += 1;
  });
  for (int i = 0; i < kTasks; ++i) {
    const RegionId r = rt.register_data("cell" + std::to_string(i),
                                        sizeof(int), &cells[i]);
    rt.submit(t, {Access::inout(r)});
  }
  rt.taskwait();
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(cells[i], 1) << i;
  }
}

TEST(RuntimeThreads, ReadersSeeTheWriterResult) {
  const Machine machine = make_smp_machine(4);
  Runtime rt(machine, thread_config());
  int source = 0;
  std::vector<int> sinks(8, -1);
  const RegionId src = rt.register_data("src", sizeof(source), &source);

  const TaskTypeId writer = rt.declare_task("writer");
  rt.add_version(writer, DeviceKind::kSmp, "v", [](TaskContext& ctx) {
    *static_cast<int*>(ctx.arg(0)) = 42;
  });
  const TaskTypeId reader = rt.declare_task("reader");
  rt.add_version(reader, DeviceKind::kSmp, "v", [](TaskContext& ctx) {
    *static_cast<int*>(ctx.arg(1)) = *static_cast<const int*>(ctx.arg(0));
  });

  rt.submit(writer, {Access::out(src)});
  for (auto& sink : sinks) {
    const RegionId dst = rt.register_data("dst", sizeof(int), &sink);
    rt.submit(reader, {Access::in(src), Access::out(dst)});
  }
  rt.taskwait();
  for (int value : sinks) {
    EXPECT_EQ(value, 42);
  }
}

TEST(RuntimeThreads, NestedSubmissionFromTaskBody) {
  const Machine machine = make_smp_machine(2);
  Runtime rt(machine, thread_config());
  std::atomic<int> executed{0};
  int child_cell = 0;
  const RegionId child_region =
      rt.register_data("child", sizeof(child_cell), &child_cell);

  const TaskTypeId child = rt.declare_task("child");
  rt.add_version(child, DeviceKind::kSmp, "v", [&](TaskContext&) {
    executed.fetch_add(1, std::memory_order_relaxed);
  });
  const TaskTypeId parent = rt.declare_task("parent");
  rt.add_version(parent, DeviceKind::kSmp, "v", [&](TaskContext&) {
    // Task bodies may create more tasks (OmpSs nesting).
    for (int i = 0; i < 4; ++i) {
      rt.submit(child, {Access::inout(child_region)});
    }
  });

  int parent_cell = 0;
  const RegionId parent_region =
      rt.register_data("parent", sizeof(parent_cell), &parent_cell);
  rt.submit(parent, {Access::inout(parent_region)});
  rt.taskwait();
  EXPECT_EQ(executed.load(), 4);
}

TEST(RuntimeThreads, VersioningLearnsFromWallClock) {
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config = thread_config("versioning");
  config.profile.lambda = 2;
  Runtime rt(machine, config);

  const TaskTypeId t = rt.declare_task("spin");
  // Two SMP versions with very different real costs: the fast one must
  // dominate once the group is reliable.
  const VersionId fast = rt.add_version(t, DeviceKind::kSmp, "fast",
                                        [](TaskContext&) {});
  const VersionId slow =
      rt.add_version(t, DeviceKind::kSmp, "slow", [](TaskContext&) {
        volatile double sink = 0.0;
        for (int i = 0; i < 2'000'000; ++i) {
          sink = sink + static_cast<double>(i) * 1e-9;
        }
      });

  const RegionId r = rt.register_data("r", 64);
  for (int i = 0; i < 40; ++i) {
    rt.submit(t, {Access::inout(r)});  // chain: trickled readiness
  }
  rt.taskwait();
  EXPECT_EQ(rt.run_stats().count(fast) + rt.run_stats().count(slow), 40u);
  EXPECT_GT(rt.run_stats().count(fast), rt.run_stats().count(slow));
}

TEST(RuntimeThreads, TransferAccountingStillWorksWithGpuWorkers) {
  // Simulated accelerator workers run host code, but the directory still
  // accounts the copies their memory spaces would need.
  const Machine machine = make_minotauro_node(1, 1);
  Runtime rt(machine, thread_config("fifo"));
  int cell = 7;
  const RegionId r = rt.register_data("r", sizeof(cell), &cell);
  const TaskTypeId t = rt.declare_task("gpu_inc");
  rt.add_version(t, DeviceKind::kCuda, "v", [](TaskContext& ctx) {
    *static_cast<int*>(ctx.arg(0)) += 1;
  });
  rt.submit(t, {Access::inout(r)});
  rt.taskwait();
  EXPECT_EQ(cell, 8);
  EXPECT_EQ(rt.transfer_stats().input_bytes, sizeof(cell));
  EXPECT_EQ(rt.transfer_stats().output_bytes, sizeof(cell));
}

TEST(RuntimeThreads, TaskwaitOnBlocksUntilWriterDone) {
  const Machine machine = make_smp_machine(2);
  Runtime rt(machine, thread_config());
  int value = 0;
  const RegionId r = rt.register_data("r", sizeof(value), &value);
  const TaskTypeId t = rt.declare_task("set");
  rt.add_version(t, DeviceKind::kSmp, "v", [](TaskContext& ctx) {
    *static_cast<int*>(ctx.arg(0)) = 99;
  });
  rt.submit(t, {Access::inout(r)});
  rt.taskwait_on(r);
  EXPECT_EQ(value, 99);
  rt.taskwait();
}

TEST(RuntimeThreads, TaskwaitOnWaitsForEveryDisjointWriter) {
  const Machine machine = make_smp_machine(2);
  std::atomic<bool> slow_done{false};  // outlives the runtime's workers
  Runtime rt(machine, thread_config("dep-aware"));
  const TaskTypeId slow = rt.declare_task("slow");
  const TaskTypeId fast = rt.declare_task("fast");
  rt.add_version(slow, DeviceKind::kSmp, "v", [&](TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    slow_done = true;
  });
  rt.add_version(fast, DeviceKind::kSmp, "v", [](TaskContext&) {});
  const RegionId r = rt.register_data("r", 64);
  // Independent writers of the two halves; the later one finishes first.
  const TaskId low = rt.submit(slow, {Access::out_range(r, 0, 32)});
  const TaskId high = rt.submit(fast, {Access::out_range(r, 32, 32)});
  rt.taskwait_on(r);
  EXPECT_TRUE(slow_done);
  EXPECT_EQ(rt.task_graph().task(low).state, TaskState::kFinished);
  EXPECT_EQ(rt.task_graph().task(high).state, TaskState::kFinished);
  rt.taskwait();
}

TEST(RuntimeThreads, StressManySmallTasks) {
  const Machine machine = make_smp_machine(4);
  Runtime rt(machine, thread_config("dep-aware"));
  constexpr int kChains = 16;
  constexpr int kLinks = 50;
  std::vector<long> counters(kChains, 0);
  const TaskTypeId t = rt.declare_task("inc");
  rt.add_version(t, DeviceKind::kSmp, "v", [](TaskContext& ctx) {
    *static_cast<long*>(ctx.arg(0)) += 1;
  });
  for (int c = 0; c < kChains; ++c) {
    const RegionId r = rt.register_data("chain" + std::to_string(c),
                                        sizeof(long), &counters[c]);
    for (int i = 0; i < kLinks; ++i) {
      rt.submit(t, {Access::inout(r)});
    }
  }
  rt.taskwait();
  for (int c = 0; c < kChains; ++c) {
    EXPECT_EQ(counters[c], kLinks) << c;
  }
  EXPECT_EQ(rt.run_stats().total_tasks(),
            static_cast<std::uint64_t>(kChains * kLinks));
}

}  // namespace
}  // namespace versa
