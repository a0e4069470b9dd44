// Execution backends.
//
// An Executor realizes the scheduler's decisions: it pops tasks from worker
// queues, satisfies their copy clauses (through the directory), runs or
// models their bodies, and reports completions. Two implementations:
//
//  * SimExecutor    — discrete-event virtual time; task durations come from
//                     version cost models perturbed by a noise model, and
//                     transfers occupy modelled interconnect links. This is
//                     the backend every paper figure is produced with.
//  * ThreadExecutor — one std::thread per worker; bodies really execute and
//                     durations are wall-clock. Functional/concurrency
//                     backend (the CI host has a single core, so wall-clock
//                     speedups are not meaningful there).
//
// The runtime implements ExecutorPort. The port exposes its lock as an
// annotated versa::RecursiveMutex (lock class kLockRankRuntime) so the
// thread-safety analysis checks executors hold it where required: the
// graph/directory accessors and the completion/failure reports carry
// REQUIRES(port_mutex()). Dequeuing already-placed work is the one port
// interaction that does NOT need it — Scheduler::try_pop_queued
// synchronizes itself (DESIGN.md §9).
#pragma once

#include "data/directory.h"
#include "data/transfer_engine.h"
#include "machine/machine.h"
#include "sched/scheduler.h"
#include "task/task_graph.h"
#include "task/version_registry.h"
#include "util/annotated_sync.h"

namespace versa {

namespace sanitize {
class AccessSanitizer;
}

class ExecutorPort {
 public:
  virtual ~ExecutorPort() = default;
  /// The scheduler itself may be grabbed without the lock; which of its
  /// methods need the runtime lock is part of the Scheduler contract.
  virtual Scheduler& port_scheduler() = 0;
  virtual TaskGraph& port_graph() VERSA_REQUIRES(port_mutex()) = 0;
  /// The directory is internally synchronized (its own `data` lock) —
  /// deliberately NOT annotated with the runtime capability, so lookups,
  /// transfer_cost pricing, and worker-side staging compile without the
  /// runtime lock (DESIGN.md §9).
  virtual DataDirectory& port_directory() = 0;
  virtual const VersionRegistry& port_registry() = 0;
  virtual const Machine& port_machine() = 0;
  /// Report a finished task; the runtime releases successors, notifies the
  /// scheduler, and re-pokes the executor.
  virtual void port_complete(TaskId task, WorkerId worker, Time start,
                             Time finish) VERSA_REQUIRES(port_mutex()) = 0;

  /// Report a transiently failed attempt; the runtime notifies the
  /// scheduler and makes the task ready again for another attempt.
  virtual void port_failed(TaskId task, WorkerId worker, Time start,
                           Time finish) VERSA_REQUIRES(port_mutex()) = 0;

  /// The dependence-spec sanitizer, or nullptr (the default — sanitizing
  /// off). Executors that run task bodies attach a WitnessLog to the
  /// TaskContext iff this is non-null and hand the collected spans to
  /// AccessSanitizer::record_witness before reporting port_complete. The
  /// sanitizer synchronizes itself; no runtime capability required.
  virtual sanitize::AccessSanitizer* port_sanitizer() { return nullptr; }

  /// The runtime lock (annotated, rank kLockRankRuntime). Recursive for
  /// one reason only: task bodies run while an executor holds it (sim
  /// event loop) and may re-enter the public runtime API (nested submit,
  /// taskwait). Executors lock it with versa::RecursiveLockGuard — never
  /// around a scheduler dequeue fast path.
  virtual versa::RecursiveMutex& port_mutex() = 0;
};

class Executor {
 public:
  virtual ~Executor() = default;

  virtual void attach(ExecutorPort& port) { port_ = &port; }

  /// A scheduler placed `task` on `worker`'s queue (prefetch hook).
  /// Called with the runtime lock held; `task` is a stable reference into
  /// the task graph (deque storage, never moved). Implementations must not
  /// block: the sim backend acquires synchronously (modelled prefetch in
  /// deterministic virtual time), the thread backend only wakes its
  /// workers — the one that runs the task stages its data.
  virtual void task_queued(Task& task, WorkerId worker) = 0;

  /// Ready work may exist for idle workers (pull-style schedulers).
  /// Called with the runtime lock held.
  virtual void work_available() = 0;

  /// Block until every submitted task finished. Must be called from the
  /// master thread without holding the runtime lock.
  virtual void wait_all() = 0;

  /// Block until one task finished (taskwait on(...)).
  virtual void wait_task(TaskId task) = 0;

  /// Block until every task of `graph` finished (service mode). The
  /// default is the whole-runtime barrier — always correct, merely
  /// coarser; the real backends override with per-graph tracking.
  virtual void wait_graph(GraphId graph) {
    (void)graph;
    wait_all();
  }

  /// Task currently executing on the calling context (kInvalidTask when
  /// called from the master thread). Used to attribute nested submissions.
  virtual TaskId current_task() const { return kInvalidTask; }

  /// Children-scoped taskwait: block until `parent`'s live_children hits
  /// zero. Called from inside `parent`'s body; implementations keep the
  /// worker productive (or the simulation progressing) meanwhile.
  virtual void wait_children(TaskId parent) = 0;

  /// Current time: virtual (sim) or wall seconds since construction.
  virtual Time now() const = 0;

  /// Realize taskwait flush copies; returns their completion time.
  /// Called with the runtime lock held.
  virtual Time flush(const TransferList& ops) = 0;

 protected:
  ExecutorPort* port_ = nullptr;
};

}  // namespace versa
