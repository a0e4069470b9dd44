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
//
// Both backends start a task the same way: under the runtime lock they
// call Scheduler::task_started (which re-homes a stolen task and traces
// the steal) and mark it running; then, for a task with a body, the
// TaskContext's arguments are resolved in one directory critical section
// and Executor::run_body runs the body with them, an optional witness log
// and the current-task marker; the witnessed spans travel with the locked
// port_complete report.
#pragma once

#include "data/directory.h"
#include "data/transfer_engine.h"
#include "machine/machine.h"
#include "sched/scheduler.h"
#include "task/task_graph.h"
#include "task/version_registry.h"
#include "util/annotated_sync.h"

namespace versa {

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
  /// Report a finished task with the spans its body witnessed (empty
  /// unless port_witnessing()); the runtime hands those to the sanitizer,
  /// releases successors, notifies the scheduler, and re-pokes the
  /// executor.
  virtual void port_complete(TaskId task, WorkerId worker, Time start,
                             Time finish, const WitnessLog& witness)
      VERSA_REQUIRES(port_mutex()) = 0;

  /// Report a transiently failed attempt; the runtime notifies the
  /// scheduler and makes the task ready again for another attempt.
  virtual void port_failed(TaskId task, WorkerId worker, Time start,
                           Time finish) VERSA_REQUIRES(port_mutex()) = 0;

  /// True while the dependence-spec sanitizer is on: task bodies then get
  /// a witness log (Executor::run_body). Fixed at construction, so no
  /// runtime capability required.
  virtual bool port_witnessing() const { return false; }

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
  /// the task graph (chunked TaskStore, never moved). Implementations
  /// must not block: the sim backend acquires synchronously (modelled
  /// prefetch in deterministic virtual time), the thread backend only
  /// wakes its workers — the one that runs the task stages its data.
  virtual void task_queued(Task& task, WorkerId worker) = 0;

  /// Ready work may exist for idle workers (pull-style schedulers).
  /// Called with the runtime lock held.
  virtual void work_available() = 0;

  /// Block until every submitted task finished. Must be called from the
  /// master thread without holding the runtime lock.
  virtual void wait_all() = 0;

  /// Block until one task finished (taskwait on(...)).
  virtual void wait_task(TaskId task) = 0;

  /// Block until every task of `graph` finished (service mode).
  virtual void wait_graph(GraphId graph) = 0;

  /// Task whose body runs on the calling thread (kInvalidTask on the
  /// master thread and between bodies). Used to attribute nested
  /// submissions.
  TaskId current_task() const;

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

  /// Run `version`'s body for `task` with `ctx`, whose arguments the
  /// caller has already resolved (one directory critical section:
  /// describe, or acquire with an argument out-pointer): attach a witness
  /// log when port_witnessing(), and make `task` the calling thread's
  /// current_task() for the body's duration. Only a few stores separate
  /// the caller from version.fn, so a caller that stamps the clock just
  /// before this call times the body alone. Returns the spans the body
  /// witnessed, for port_complete. `version.fn` must be set.
  WitnessLog run_body(const Task& task, const TaskVersion& version,
                      TaskContext& ctx);
};

}  // namespace versa
