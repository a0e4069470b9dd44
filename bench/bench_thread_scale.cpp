// Thread-scaling benchmark of the scheduler's queue path as the thread
// backend drives it (google-benchmark, --benchmark_* flags apply).
//
// BM_RunOneSequence repeats, per task, the scheduler calls of
// ThreadExecutor::run_one: under a stand-in runtime mutex the thread
// places a ready task (task_ready); off it, it dequeues with
// try_pop_queued (its own queue first, then a same-kind steal); under the
// mutex again it reports the completion (task_completed). The policy is
// affinity, which steals; with no data accesses it places by queue
// length. Each benchmark thread is one worker of an 8-worker SMP node and
// ->ThreadRange(1, 8) scales the contending workers. items_per_second
// counts completed tasks, aggregated over threads by the framework.
//
// Single-CPU hosts cannot show contention: with one core the threads
// time-slice and the curve flat-lines. A committed BENCH_thread_scale.json
// records the host and the build type of this binary in its context block
// (num_cpus, hardware_concurrency, build_type).
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_context.h"
#include "common/check.h"
#include "machine/presets.h"
#include "sched/affinity_scheduler.h"
#include "util/annotated_sync.h"
#include "util/lock_order.h"

namespace versa {
namespace {

constexpr std::size_t kMaxThreads = 8;
/// Recycled task slots; in-flight tasks never exceed a few per thread.
constexpr std::size_t kTaskSlots = 1024;
constexpr Duration kBodyTime = 1e-6;

struct Node {
  Node() : ctx(make_smp_machine(kMaxThreads)) {
    sched.attach(ctx);
    for (std::size_t i = 0; i < kTaskSlots; ++i) {
      free_tasks.push_back(ctx.ready_task().id);
    }
  }

  bench::BenchContext ctx;
  AffinityScheduler sched;
  /// Stand-in for the runtime lock: guards the graph and free_tasks.
  versa::RecursiveMutex runtime{lock_order::kLockRankRuntime};
  std::vector<TaskId> free_tasks;
};

Node* g_node = nullptr;

void make_node(const benchmark::State&) { g_node = new Node; }

void drop_node(const benchmark::State&) {
  delete g_node;
  g_node = nullptr;
}

void BM_RunOneSequence(benchmark::State& state) {
  Node& node = *g_node;
  const WorkerId worker = static_cast<WorkerId>(state.thread_index());
  std::int64_t completed = 0;
  for (auto _ : state) {
    {
      versa::RecursiveLockGuard lock(node.runtime);
      VERSA_CHECK(!node.free_tasks.empty());
      Task& task = node.ctx.graph_.task(node.free_tasks.back());
      node.free_tasks.pop_back();
      task.state = TaskState::kReady;
      node.sched.task_ready(task);
    }
    const TaskId id = node.sched.try_pop_queued(worker);
    if (id == kInvalidTask) continue;  // another thread took our task
    {
      versa::RecursiveLockGuard lock(node.runtime);
      Task& task = node.ctx.graph_.task(id);
      task.state = TaskState::kRunning;
      node.sched.task_completed(task, worker, kBodyTime);
      node.free_tasks.push_back(id);
    }
    ++completed;
  }
  state.SetItemsProcessed(completed);
}
BENCHMARK(BM_RunOneSequence)
    ->Setup(make_node)
    ->Teardown(drop_node)
    ->ThreadRange(1, kMaxThreads)
    ->UseRealTime();

}  // namespace
}  // namespace versa

int main(int argc, char** argv) {
  // Measure the mutexes, not the debug lock-order checker.
  versa::lock_order::set_enforced(false);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  versa::bench::report_hardware_concurrency();
  ::benchmark::AddCustomContext("build_type", VERSA_BUILD_TYPE);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
