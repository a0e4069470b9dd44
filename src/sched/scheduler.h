// Scheduler plugin interface, mirroring the Nanos++ scheduling-policy
// plugin design the paper builds on: policies are selected by name at
// runtime (configuration argument / environment variable), and the rest of
// the runtime is policy-agnostic.
//
// Contract with the runtime:
//  * task_ready(t)        — t's dependences are satisfied; the policy must
//                           eventually make it poppable by some worker.
//  * pop_task(w)          — worker w is idle and asks for work.
//  * task_started(t,w)    — an executor starts t on w; re-homes a stolen t
//                           and records its steal in the decision trace.
//  * task_completed(t,w,d)— t finished on w with measured duration d;
//                           called before the successors' task_ready.
// These calls arrive under the runtime lock; policy-*decision* state
// (pools, cursors, profile tables, the decision trace) therefore needs no
// locking of its own.
//
// The exception, since the ThreadExecutor lock split, is the dequeue fast
// path: try_pop_queued(w) may be called by a worker thread WITHOUT the
// runtime lock. QueueScheduler implements it over the sharded WorkerQueues
// (per-worker queue mutexes) and the account mutex, so popping and
// stealing already-placed work never serializes on the runtime lock; the
// base implementation returns kInvalidTask, which makes executors fall
// back to pop_task under the runtime lock. The fast path touches neither
// the graph nor the trace: a steal is traced by task_started. Lock
// classes and ranking are documented in DESIGN.md §9.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/directory.h"
#include "machine/machine.h"
#include "sched/core/decision_trace.h"
#include "sched/core/load_account.h"
#include "sched/core/worker_queues.h"
#include "task/task.h"
#include "task/task_graph.h"
#include "task/version_registry.h"
#include "util/annotated_sync.h"

namespace versa {

/// Runtime services a policy may use. All of them are runtime-lock
/// serialized (policies call them from under the runtime lock).
class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;
  virtual const Machine& machine() const = 0;
  virtual const VersionRegistry& registry() const = 0;
  virtual DataDirectory& directory() = 0;
  virtual TaskGraph& graph() = 0;
  virtual Time now() const = 0;
  /// Tell the executor a task landed on `worker`'s queue (prefetch hook;
  /// the executor may start the task's copies immediately).
  virtual void task_assigned(TaskId task, WorkerId worker) = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual const char* name() const = 0;

  /// Called once before any task flows through the policy.
  virtual void attach(SchedulerContext& ctx);

  virtual void task_ready(Task& task) = 0;

  /// Next task for an idle worker, or kInvalidTask. Runtime lock held.
  virtual TaskId pop_task(WorkerId worker) = 0;

  /// Lock-split fast path: dequeue work already placed on a worker queue
  /// (own queue first, then steals) WITHOUT the runtime lock. Policies
  /// with no such path return kInvalidTask and the executor falls back to
  /// pop_task under the runtime lock. Must not touch the task graph.
  virtual TaskId try_pop_queued(WorkerId worker);

  /// An executor starts `task` on `worker` (runtime lock held). If the
  /// task was placed elsewhere, it was stolen: point assigned_worker at
  /// the thief and, when tracing, record the steal with the victim's
  /// current busy estimate. The one place a steal reaches the graph.
  void task_started(Task& task, WorkerId worker);

  virtual void task_completed(Task& task, WorkerId worker, Duration measured);

  /// A dispatched task failed transiently on `worker` and will be made
  /// ready again. Policies must release any per-worker accounting; they
  /// must NOT record the wasted time as a measurement.
  virtual void task_failed(Task& task, WorkerId worker);

  /// Estimated seconds of queued + running work on `worker` (0 when the
  /// policy does not track it).
  virtual Duration estimated_busy(WorkerId worker) const;

  /// True if some ready task has not been handed to a worker yet.
  virtual bool has_pending() const = 0;

  /// Cover the policy's own mutexes with lock class `outer`
  /// (versa::Mutex::cover_with): the runtime calls this at construction
  /// when every policy call, the dequeue fast path included, arrives
  /// under its lock (the sim backend). Policies without mutexes ignore it.
  virtual void cover_locks_with(const lock_order::LockClass& outer);

  /// Decision-trace ring shared by every policy: disabled (and free) by
  /// default; the runtime enables it on --sched-trace / VERSA_SCHED_TRACE
  /// and src/perf/sched_trace.h renders it after the run. Plain data
  /// under the runtime lock: every recording call runs under it.
  core::DecisionTrace& decision_trace() { return trace_; }
  const core::DecisionTrace& decision_trace() const { return trace_; }

 protected:
  SchedulerContext* ctx_ = nullptr;
  core::DecisionTrace trace_;

  /// Main-version helpers shared by the baseline policies (which, per the
  /// paper, ignore `implements` and only ever run the main version).
  const TaskVersion& main_version_of(const Task& task) const;

  /// Workers whose device kind can run `version`.
  std::vector<WorkerId> compatible_workers(const TaskVersion& version) const;
};

/// Placement context threaded into the load account and the decision
/// trace by QueueScheduler::push_to_worker.
struct PushInfo {
  Duration estimate = 0.0;       ///< execution-time charge for the account
  Duration penalty = 0.0;        ///< extra placement cost (locality)
  std::uint32_t candidates = 0;  ///< (version, worker) pairs evaluated
  bool learning = false;         ///< forced-sampling placement
};

/// Shared per-worker FIFO queue machinery for push-style policies.
///
/// Lock split (DESIGN.md §9): already-placed work lives in the sharded
/// WorkerQueues (one kLockRankQueue mutex per worker), and busy accounting
/// and the finish-time index live in account_ under the kLockRankAccount
/// mutex — so try_pop_queued (pop + steal) runs without the runtime lock.
/// Placement *decisions* (task_ready and subclass policy state) still
/// arrive under the runtime lock, which orders them against the task
/// graph. push_to_worker charges the account and then inserts straight
/// into the worker's shard; a profile-mean move re-prices the account at
/// once (reprice), so every decision reads fully re-priced state. On the
/// sim backend the runtime lock covers both lock kinds (cover_locks_with),
/// so the lock-taking accessors below need it held there.
class QueueScheduler : public Scheduler {
 public:
  void attach(SchedulerContext& ctx) override;
  /// The runtime-locked dequeue (the sim pump, the thread fallback). A
  /// policy that does not steal answers a miss from the shard's atomic
  /// length without taking the shard lock: every push happens under the
  /// runtime lock, so the length cannot grow while this runs and a zero
  /// read is exact. try_pop_queued, which runs without the runtime lock,
  /// always takes the shard lock.
  TaskId pop_task(WorkerId worker) override;
  TaskId try_pop_queued(WorkerId worker) override;
  /// Some worker queue holds an entry: read from the shards' length
  /// mirrors, so exact under the runtime lock and racy otherwise.
  bool has_pending() const override;

  /// Re-price observability (tests, the end-to-end harness): profile-mean
  /// moves seen, and LoadAccount::reprice calls issued. Every move
  /// re-prices at once, so the two counts are equal. These counters and
  /// buffer_push_batches() take no lock, so a monitor may read them
  /// without the runtime lock on either backend.
  std::uint64_t reprice_requests() const;
  std::uint64_t reprice_flushes() const;

  /// Shard insertions since attach (tests, the end-to-end harness): one
  /// per placed task.
  std::uint64_t buffer_push_batches() const;

  /// Queue length of a worker (tie-breaking and tests). Lock-free read of
  /// the shard's atomic length mirror.
  std::size_t queue_length(WorkerId worker) const;

  /// Snapshot of the task ids queued on a worker, head first (busy-time
  /// rescan cross-checks and tests). Replaces the old by-reference
  /// queue() accessor, which could not survive concurrent shard access.
  std::vector<TaskId> queued_tasks(WorkerId worker) const;

  /// Estimated seconds of queued + running work, maintained incrementally
  /// by the load account (exact zero for policies that charge no
  /// estimates, matching the historical behaviour).
  Duration estimated_busy(WorkerId worker) const override;

  /// Covers the account mutex and every queue shard (sim backend).
  void cover_locks_with(const lock_order::LockClass& outer) override;
  bool account_lock_covered() const { return account_mutex_.covered(); }
  bool queue_lock_covered(WorkerId worker) const {
    return queues_.covered(worker);
  }

  void task_completed(Task& task, WorkerId worker, Duration measured) override;
  void task_failed(Task& task, WorkerId worker) override;

 protected:
  /// Assign `task` to `worker` running `version`: charges the account,
  /// records the trace event, freezes the applied charge into
  /// task.scheduler_estimate, inserts into the worker's shard (poppable
  /// and stealable from then on), and fires the prefetch hook. Runtime
  /// lock held (mutates the task).
  void push_to_worker(Task& task, VersionId version, WorkerId worker,
                      const PushInfo& info = PushInfo());

  /// The profile mean behind `price` moved (nullopt = forgotten):
  /// re-price the account at once. Takes the account lock: safe from any
  /// thread on the thread backend, under the runtime lock on the sim
  /// backend.
  void reprice(PriceId price, std::optional<Duration> mean);

  /// The account price id that charges `version` of `task`. Policies that
  /// never reprice keep the default, one shared price (core::kSharedPrice);
  /// policies with profile tables name the mean's entry. Runtime lock held.
  virtual PriceId price_id(Task& task, const TaskVersion& version);

  /// Enable same-device-kind work stealing on empty pops. Policies set
  /// this at construction, before any worker thread exists.
  void set_stealing(bool enabled) { stealing_ = enabled; }

  /// Least-loaded worker among `candidates` (by queue length, then id).
  WorkerId least_loaded(const std::vector<WorkerId>& candidates) const;

  /// Guards account_: the incremental busy accounting and its per-kind
  /// finish-time index. Acquired after the runtime lock and never while a
  /// queue shard is held (rank 20, between runtime and queue shards).
  mutable versa::Mutex account_mutex_{lock_order::kLockRankAccount};

  /// Incremental busy accounting + per-kind finish-time index.
  core::LoadAccount account_ VERSA_GUARDED_BY(account_mutex_);

 private:
  core::WorkerQueues queues_;
  bool stealing_ = false;

  /// Written only under account_mutex_ (one writer at a time, so a
  /// relaxed load and store count exactly), read lock-free.
  std::atomic<std::uint64_t> reprices_{0};
  std::atomic<std::uint64_t> shard_pushes_{0};

  TaskId steal_for(WorkerId thief);
};

}  // namespace versa
