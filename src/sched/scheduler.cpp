#include "sched/scheduler.h"

#include "common/check.h"

namespace versa {

void Scheduler::attach(SchedulerContext& ctx) { ctx_ = &ctx; }

TaskId Scheduler::try_pop_queued(WorkerId) { return kInvalidTask; }

void Scheduler::task_completed(Task&, WorkerId, Duration) {}

void Scheduler::task_failed(Task&, WorkerId) {}

Duration Scheduler::estimated_busy(WorkerId) const { return 0.0; }

const TaskVersion& Scheduler::main_version_of(const Task& task) const {
  VERSA_CHECK(ctx_ != nullptr);
  return ctx_->registry().version(ctx_->registry().main_version(task.type));
}

std::vector<WorkerId> Scheduler::compatible_workers(
    const TaskVersion& version) const {
  VERSA_CHECK(ctx_ != nullptr);
  std::vector<WorkerId> out;
  for (const WorkerDesc& w : ctx_->machine().workers()) {
    if (w.kind == version.device) out.push_back(w.id);
  }
  return out;
}

void QueueScheduler::attach(SchedulerContext& ctx) {
  Scheduler::attach(ctx);
  queues_.reset(ctx.machine().worker_count());
  pending_.store(0, std::memory_order_relaxed);
  versa::LockGuard lock(account_mutex_);
  account_.reset(ctx.machine());
  reprices_ = 0;
  shard_pushes_ = 0;
}

void QueueScheduler::reprice(const core::PriceKey& key,
                             std::optional<Duration> mean) {
  versa::LockGuard lock(account_mutex_);
  account_.reprice(key, mean);
  ++reprices_;
}

std::uint64_t QueueScheduler::reprice_requests() const {
  versa::LockGuard lock(account_mutex_);
  return reprices_;
}

std::uint64_t QueueScheduler::reprice_flushes() const {
  return reprice_requests();
}

std::uint64_t QueueScheduler::buffer_push_batches() const {
  versa::LockGuard lock(account_mutex_);
  return shard_pushes_;
}

std::uint64_t QueueScheduler::price_group(const Task& task) const {
  return task.data_set_size;
}

void QueueScheduler::push_to_worker(Task& task, VersionId version,
                                    WorkerId worker, const PushInfo& info) {
  VERSA_CHECK(ctx_ != nullptr);
  VERSA_CHECK(worker < queues_.worker_count());
  const TaskVersion& v = ctx_->registry().version(version);
  VERSA_CHECK_MSG(v.device == ctx_->machine().worker(worker).kind,
                  "version/worker device mismatch");
  VERSA_CHECK(task.state == TaskState::kReady);
  task.chosen_version = version;
  task.assigned_worker = worker;
  task.state = TaskState::kQueued;
  const std::uint64_t group = price_group(task);
  // Charge the account; freeze the applied charge (the current profile
  // mean when known, else the caller's estimate) so a later mean-forgotten
  // re-price — and the rescan reference — can still price this task.
  Duration busy_before;
  {
    versa::LockGuard lock(account_mutex_);
    busy_before = account_.busy(worker);
    task.scheduler_estimate =
        account_.on_push(task.id, core::PriceKey{task.type, version, group},
                         worker, info.estimate);
    ++shard_pushes_;
  }
  // Count the entry before it becomes poppable: a concurrent owner or
  // thief may pop it the moment push() releases the shard mutex, and its
  // decrement must not run ahead of this increment.
  pending_.fetch_add(1, std::memory_order_relaxed);
  queues_.push(worker, core::QueueEntry{task.id, task.type, version,
                                        task.priority, task.scheduler_estimate,
                                        task.tenant});
  if (trace_.enabled()) {
    trace_.record(core::TraceEvent{
        ctx_->now(), task.id, task.type, version, worker, busy_before,
        task.scheduler_estimate, info.penalty, info.candidates,
        info.learning ? core::TraceEventKind::kLearningPlacement
                      : core::TraceEventKind::kPlacement,
        task.tenant});
  }
  ctx_->task_assigned(task.id, worker);
}

TaskId QueueScheduler::pop_task(WorkerId worker) {
  // The queue path never needs the runtime lock; under it this is simply
  // the same dequeue, serialized.
  return try_pop_queued(worker);
}

TaskId QueueScheduler::try_pop_queued(WorkerId worker) {
  VERSA_CHECK(worker < queues_.worker_count());
  if (std::optional<core::QueueEntry> entry = queues_.pop_front(worker)) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    versa::LockGuard lock(account_mutex_);
    account_.on_pop(entry->id, worker);
    return entry->id;
  }
  if (stealing_) return steal_for(worker);
  return kInvalidTask;
}

TaskId QueueScheduler::steal_for(WorkerId thief) {
  const DeviceKind kind = ctx_->machine().worker(thief).kind;
  // Steal from the back of the most loaded queue of a same-kind worker:
  // the victim keeps its locality-friendly head-of-queue work. Victim
  // selection reads only the atomic length mirrors.
  WorkerId victim = kInvalidWorker;
  std::size_t best = 0;
  for (const WorkerDesc& w : ctx_->machine().workers()) {
    if (w.id == thief || w.kind != kind) continue;
    const std::size_t len = queues_.length(w.id);
    if (len > best) {
      best = len;
      victim = w.id;
    }
  }
  if (victim == kInvalidWorker || best == 0) return kInvalidTask;
  const std::optional<core::QueueEntry> entry = queues_.steal_back(victim);
  if (!entry) return kInvalidTask;  // raced away under a concurrent pop
  pending_.fetch_sub(1, std::memory_order_relaxed);
  Duration victim_busy;
  {
    versa::LockGuard lock(account_mutex_);
    account_.on_steal(entry->id, victim, thief);
    account_.on_pop(entry->id, thief);
    victim_busy = account_.busy(victim);
  }
  // Task::assigned_worker is re-homed by the executor under the runtime
  // lock when the stolen task starts (this path cannot touch the graph).
  if (trace_.enabled()) {
    trace_.record(core::TraceEvent{
        ctx_->now(), entry->id, entry->type, entry->version, thief,
        victim_busy, entry->estimate, 0.0, 0, core::TraceEventKind::kSteal,
        entry->tenant});
  }
  return entry->id;
}

void QueueScheduler::task_completed(Task& task, WorkerId worker,
                                    Duration measured) {
  Duration busy_after;
  {
    versa::LockGuard lock(account_mutex_);
    account_.on_settle(worker);
    busy_after = account_.busy(worker);
  }
  if (trace_.enabled()) {
    trace_.record(core::TraceEvent{
        ctx_->now(), task.id, task.type, task.chosen_version, worker,
        busy_after, measured, 0.0, 0, core::TraceEventKind::kComplete,
        task.tenant});
  }
}

void QueueScheduler::task_failed(Task& task, WorkerId worker) {
  Duration busy_after;
  {
    versa::LockGuard lock(account_mutex_);
    account_.on_settle(worker);
    busy_after = account_.busy(worker);
  }
  if (trace_.enabled()) {
    trace_.record(core::TraceEvent{
        ctx_->now(), task.id, task.type, task.chosen_version, worker,
        busy_after, 0.0, 0.0, 0, core::TraceEventKind::kFailure, task.tenant});
  }
}

Duration QueueScheduler::estimated_busy(WorkerId worker) const {
  versa::LockGuard lock(account_mutex_);
  return account_.busy(worker);
}

bool QueueScheduler::has_pending() const {
  return pending_.load(std::memory_order_relaxed) > 0;
}

std::size_t QueueScheduler::queue_length(WorkerId worker) const {
  return queues_.length(worker);
}

std::vector<TaskId> QueueScheduler::queued_tasks(WorkerId worker) const {
  return queues_.snapshot(worker);
}

WorkerId QueueScheduler::least_loaded(
    const std::vector<WorkerId>& candidates) const {
  VERSA_CHECK_MSG(!candidates.empty(), "no compatible worker for task");
  WorkerId best = candidates.front();
  std::size_t best_len = queues_.length(best);
  for (WorkerId w : candidates) {
    const std::size_t len = queues_.length(w);
    if (len < best_len) {
      best = w;
      best_len = len;
    }
  }
  return best;
}

}  // namespace versa
