#include "sched/scheduler.h"

#include "common/check.h"

namespace versa {

void Scheduler::attach(SchedulerContext& ctx) { ctx_ = &ctx; }

TaskId Scheduler::try_pop_queued(WorkerId) { return kInvalidTask; }

void Scheduler::task_completed(Task&, WorkerId, Duration) {}

void Scheduler::task_failed(Task&, WorkerId) {}

Duration Scheduler::estimated_busy(WorkerId) const { return 0.0; }

void Scheduler::cover_locks_with(const lock_order::LockClass&) {}

void Scheduler::task_started(Task& task, WorkerId worker) {
  if (task.assigned_worker == worker) return;
  if (trace_.enabled()) {
    trace_.record(core::TraceEvent{
        ctx_->now(), task.id, task.type, task.chosen_version, worker,
        estimated_busy(task.assigned_worker), task.scheduler_estimate, 0.0, 0,
        core::TraceEventKind::kSteal, task.tenant});
  }
  task.assigned_worker = worker;
}

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
  versa::LockGuard lock(account_mutex_);
  account_.reset(ctx.machine());
  reprices_.store(0, std::memory_order_relaxed);
  shard_pushes_.store(0, std::memory_order_relaxed);
}

void QueueScheduler::cover_locks_with(const lock_order::LockClass& outer) {
  account_mutex_.cover_with(outer);
  queues_.cover_with(outer);
}

void QueueScheduler::reprice(PriceId price, std::optional<Duration> mean) {
  versa::LockGuard lock(account_mutex_);
  account_.reprice(price, mean);
  reprices_.store(reprices_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
}

std::uint64_t QueueScheduler::reprice_requests() const {
  return reprices_.load(std::memory_order_relaxed);
}

std::uint64_t QueueScheduler::reprice_flushes() const {
  return reprice_requests();
}

std::uint64_t QueueScheduler::buffer_push_batches() const {
  return shard_pushes_.load(std::memory_order_relaxed);
}

PriceId QueueScheduler::price_id(Task&, const TaskVersion&) {
  return core::kSharedPrice;
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
  const PriceId price = price_id(task, v);
  // Charge the account; freeze the applied charge (the current profile
  // mean when known, else the caller's estimate) so a later mean-forgotten
  // re-price — and the rescan reference — can still price this task.
  Duration busy_before = 0.0;  // trace only
  {
    versa::LockGuard lock(account_mutex_);
    if (trace_.enabled()) busy_before = account_.busy(worker);
    task.scheduler_estimate =
        account_.on_push(task.id, price, worker, info.estimate);
    shard_pushes_.store(shard_pushes_.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  }
  queues_.push(worker, core::QueueEntry{task.id, task.priority});
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
  // the same dequeue, serialized. Every push happens under the runtime
  // lock, so here a zero length mirror is exact and, with no steal to
  // try, a miss needs no shard lock.
  if (!stealing_ && queues_.length(worker) == 0) return kInvalidTask;
  return try_pop_queued(worker);
}

TaskId QueueScheduler::try_pop_queued(WorkerId worker) {
  VERSA_CHECK(worker < queues_.worker_count());
  if (std::optional<core::QueueEntry> entry = queues_.pop_front(worker)) {
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
  versa::LockGuard lock(account_mutex_);
  account_.on_steal(entry->id, victim, thief);
  account_.on_pop(entry->id, thief);
  // This path cannot touch the graph: task_started re-homes the task and
  // traces the steal when the thief starts it, under the runtime lock.
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
  for (WorkerId w = 0; w < queues_.worker_count(); ++w) {
    if (queues_.length(w) > 0) return true;
  }
  return false;
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
