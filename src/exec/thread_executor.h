// Real-thread execution backend: one std::thread per modelled worker.
//
// Task bodies execute for real (simulated accelerator workers run the same
// host code — the directory still accounts the transfers their memory
// spaces would need) and durations are measured with the steady clock, so
// the versioning scheduler learns from genuine measurements. This backend
// validates functional correctness and the concurrency of the runtime; the
// timing figures come from SimExecutor.
//
// Locking (DESIGN.md §9): since the lock split, the dequeue fast path —
// Scheduler::try_pop_queued, i.e. popping the worker's own shard or
// stealing — runs WITHOUT the runtime lock; workers take it only twice
// per task, and for the pop_task fallback of policies with no lock-free
// path. The start section calls Scheduler::task_started (re-homing a
// stolen task and tracing the steal) and flips the state; the completion
// section reports port_complete with the body's witness log, if any. The
// executing worker stages the task's data once, right after marking it
// running: the directory acquire (bookkeeping only — the data stays in
// host storage) and argument resolution run off the runtime lock on the
// directory's own `data` class. Staging before the body means every
// acquire lands before the task's completion, so nothing can touch the
// directory after its graph retires (DESIGN.md §13).
// Sleeping and waking go through a dedicated wake mutex (class
// kLockRankExecWake, the innermost lock; DESIGN.md §9 records why an
// atomic wait/notify epoch did not replace it) and an epoch counter: a
// worker samples the epoch before it tries to pop and sleeps only if the
// epoch is unchanged, and every push/completion bumps the epoch after
// publishing its work — so a wakeup between the failed pop and the wait
// can never be lost.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "util/annotated_sync.h"

namespace versa {

struct ThreadExecutorConfig {
  /// Sleep each task to cost_model * time_scale (device-speed emulation);
  /// tasks without a cost model run at native speed either way.
  bool emulate_costs = false;
  double time_scale = 1.0;
};

class ThreadExecutor final : public Executor {
 public:
  explicit ThreadExecutor(const Machine& machine,
                          ThreadExecutorConfig config = {});
  ~ThreadExecutor() override;

  void attach(ExecutorPort& port) override;
  void task_queued(Task& task, WorkerId worker) override;
  void work_available() override;
  void wait_all() override;
  void wait_task(TaskId task) override;
  void wait_graph(GraphId graph) override;
  void wait_children(TaskId parent) override;
  Time now() const override;
  Time flush(const TransferList& ops) override;

 private:
  const Machine& machine_;
  ThreadExecutorConfig config_;
  std::vector<std::thread> threads_;
  std::chrono::steady_clock::time_point epoch_;

  /// Wake protocol: wake_epoch_ counts "something changed" events (task
  /// pushed, work available, task completed). Workers and waiters sample
  /// it, re-check their condition, and sleep on wake_cv_ only while the
  /// epoch is unchanged.
  versa::Mutex wake_mutex_{lock_order::kLockRankExecWake};
  std::uint64_t wake_epoch_ VERSA_GUARDED_BY(wake_mutex_) = 0;
  std::condition_variable_any wake_cv_;
  std::atomic<bool> stop_{false};

  std::uint64_t wake_snapshot();
  void bump_wake();
  /// Sleep until the epoch moves past `seen` (or stop).
  void wait_wake(std::uint64_t seen);
  /// Master/client-side wait: block until `done(graph)` holds, checking it
  /// under the runtime lock once per wake epoch (the wait_all, wait_task
  /// and wait_graph loop).
  template <typename Predicate>
  void wait_until(Predicate done);

  void worker_loop(WorkerId worker);

  /// Pop (fast path first, then the locked fallback) and execute one task
  /// for `worker`. Takes the runtime lock only around the graph
  /// transitions — the directory acquire, argument resolution, and the
  /// body all run outside it. Returns false if no task was available.
  bool run_one(WorkerId worker);
};

}  // namespace versa
