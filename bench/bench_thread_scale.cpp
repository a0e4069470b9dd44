// Thread-scaling micro-benchmark for the ThreadExecutor lock split
// (google-benchmark, --benchmark_* flags apply).
//
// The comparison that motivated the split: BM_PopSharded drives the
// sharded WorkerQueues fast path (one kLockRankQueue mutex per worker, as
// used by Scheduler::try_pop_queued), BM_PopSingleLock is a faithful
// in-bench model of the pre-split dequeue — the same per-worker deques,
// but every push/pop serialized on one global mutex the way the runtime
// lock used to serialize them. Each measured op is one push + one pop on
// the thread's own worker queue, i.e. the steady-state executor hot loop;
// ->ThreadRange(1, 8) scales the contending worker count. The acceptance
// bar from the lock-split work: sharded pop throughput at 8 threads is
// >= 3x the single-lock baseline (items_per_second, aggregated over
// threads by the framework).
//
// BM_PopShardedWithSteals mixes one steal_back from the next worker into
// every eighth op to show the split survives the stealing path without
// collapsing (two shards touched, still no global serialization).
//
// Caveat for single-CPU hosts (some CI containers): with one core there
// is no parallelism for a lock split to reclaim — contended threads
// sleep on the futex and the lock holder runs uninterrupted, so the
// global-mutex baseline flat-lines at its 1-thread rate while the
// uncontended sharded paths pay the timeslice round-robin tax. On such
// hosts the sharded paths measure within noise of (or behind) the
// single-lock model at every thread count; the scaling bar is meaningful
// on multicore hardware only. A committed BENCH_thread_scale.json records
// which kind of host produced it, and the build type of this binary, in
// its context block (num_cpus, hardware_concurrency, build_type).
#include <benchmark/benchmark.h>

#include <deque>
#include <mutex>
#include <vector>

#include "bench_context.h"
#include "sched/core/worker_queues.h"
#include "util/lock_order.h"

namespace versa::core {
namespace {

constexpr std::size_t kMaxThreads = 8;

QueueEntry make_entry(TaskId id) {
  QueueEntry e;
  e.id = id;
  e.type = 1;
  e.version = 1;
  e.priority = 0;
  e.estimate = 1e-3;
  return e;
}

/// The pre-split shape: per-worker deques behind ONE mutex (the global
/// runtime lock's role in the old dequeue path).
class SingleLockQueues {
 public:
  explicit SingleLockQueues(std::size_t workers) : queues_(workers) {}

  void push(WorkerId worker, const QueueEntry& entry) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& q = queues_[worker];
    // Same priority-insertion walk as WorkerQueues (trivial at equal
    // priority, but the baseline must pay for the same semantics).
    auto it = q.end();
    while (it != q.begin() && (it - 1)->priority < entry.priority) {
      --it;
    }
    q.insert(it, entry);
  }

  bool pop_front(WorkerId worker, QueueEntry& out) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& q = queues_[worker];
    if (q.empty()) return false;
    out = q.front();
    q.pop_front();
    return true;
  }

 private:
  std::mutex mutex_;
  std::vector<std::deque<QueueEntry>> queues_;
};

void BM_PopSharded(benchmark::State& state) {
  // Function-local static: initialized once, thread-safely, before any
  // benchmark thread enters the loop. Every thread works its own shard,
  // so shards come back empty between runs.
  static WorkerQueues* queues = [] {
    auto* q = new WorkerQueues;
    q->reset(kMaxThreads);
    return q;
  }();
  const WorkerId worker = static_cast<WorkerId>(state.thread_index());
  TaskId next = 1;
  for (auto _ : state) {
    queues->push(worker, make_entry(next++));
    benchmark::DoNotOptimize(queues->pop_front(worker));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PopSharded)->ThreadRange(1, kMaxThreads)->UseRealTime();

void BM_PopSingleLock(benchmark::State& state) {
  static SingleLockQueues* queues = [] {
    return new SingleLockQueues(kMaxThreads);
  }();
  const WorkerId worker = static_cast<WorkerId>(state.thread_index());
  TaskId next = 1;
  QueueEntry out;
  for (auto _ : state) {
    queues->push(worker, make_entry(next++));
    benchmark::DoNotOptimize(queues->pop_front(worker, out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PopSingleLock)->ThreadRange(1, kMaxThreads)->UseRealTime();

void BM_PopShardedWithSteals(benchmark::State& state) {
  static WorkerQueues* queues = [] {
    auto* q = new WorkerQueues;
    q->reset(kMaxThreads);
    return q;
  }();
  const WorkerId worker = static_cast<WorkerId>(state.thread_index());
  const WorkerId victim =
      static_cast<WorkerId>((state.thread_index() + 1) % state.threads());
  TaskId next = 1;
  int op = 0;
  for (auto _ : state) {
    queues->push(worker, make_entry(next++));
    if (++op % 8 == 0) {
      benchmark::DoNotOptimize(queues->steal_back(victim));
      // The steal may have raced away this thread's entry or taken the
      // victim's; drain our own front either way to stay in steady state.
      benchmark::DoNotOptimize(queues->pop_front(worker));
    } else {
      benchmark::DoNotOptimize(queues->pop_front(worker));
    }
  }
  // Leave no entries behind for the next thread-count run.
  while (queues->pop_front(worker)) {
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PopShardedWithSteals)->ThreadRange(1, kMaxThreads)->UseRealTime();

}  // namespace
}  // namespace versa::core

int main(int argc, char** argv) {
  // Measure the mutexes, not the debug checker: the single-lock baseline
  // uses a raw std::mutex, so enforcement would bill the rank bookkeeping
  // to the sharded side only.
  versa::lock_order::set_enforced(false);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  versa::bench::report_hardware_concurrency();
  ::benchmark::AddCustomContext("build_type", VERSA_BUILD_TYPE);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
