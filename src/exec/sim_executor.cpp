#include "exec/sim_executor.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"

namespace versa {

SimExecutor::SimExecutor(const Machine& machine, SimExecutorConfig config)
    : machine_(machine),
      config_(config),
      engine_(machine),
      busy_(machine.worker_count(), false),
      failure_rng_(config.seed ^ 0xfa11u) {
  VERSA_CHECK(config_.failure_rate >= 0.0 && config_.failure_rate < 1.0);
  VERSA_CHECK(config_.max_attempts >= 1);
  Rng root(config_.seed);
  noise_.reserve(machine.worker_count());
  for (std::size_t i = 0; i < machine.worker_count(); ++i) {
    noise_.emplace_back(config_.noise, root.split());
  }
}

void SimExecutor::acquire_for(Task& task, SpaceId space) {
  if (task.acquired_space == space) return;
  TransferList& ops = transfer_scratch_;
  ops.clear();
  port_->port_directory().acquire(task.accesses, space, ops);
  task.transfers_ready_time = engine_.enqueue(ops, now_);
  task.acquired_space = space;
  horizon_ = std::max(horizon_, task.transfers_ready_time);
}

void SimExecutor::task_queued(Task& task, WorkerId worker) {
  // Called from the scheduler's push, under the runtime lock (contract);
  // the assertion bridges the analysis and is checked dynamically against
  // the held-lock stack. The sim backend acquires synchronously — the
  // event loop is single-threaded, so prefetch stays deterministic.
  port_->port_mutex().assert_held();
  work_arrived_ = true;
  if (config_.prefetch) {
    // Overlap: start this task's copies now, while workers compute.
    acquire_for(task, machine_.worker(worker).space);
  }
  // Actual dispatch happens in pump(), driven by the wait loops.
}

void SimExecutor::work_available() {
  // A ready task may have gone to a policy's pool without any push (the
  // versioning learning pool), where an idle worker's pop can pull it.
  work_arrived_ = true;
}

void SimExecutor::start_task(WorkerId worker, TaskId id, bool occupy_worker) {
  Task& task = port_->port_graph().task(id);
  VERSA_CHECK(task.state == TaskState::kQueued);
  port_->port_scheduler().task_started(task, worker);
  const TaskVersion& version =
      port_->port_registry().version(task.chosen_version);
  const SpaceId space = machine_.worker(worker).space;
  acquire_for(task, space);

  const Time start = std::max(now_, task.transfers_ready_time);
  const Duration mean = version.cost != nullptr
                            ? version.cost->mean_duration(task.data_set_size)
                            : config_.default_task_duration;
  Duration duration = noise_[worker].apply(mean);

  // Failure injection: decide the attempt's fate up front so the real
  // body only ever runs on the successful attempt (a repeated `C += A*B`
  // would corrupt the numerics). Attempt max_attempts is forced to
  // succeed, bounding retries.
  ++task.attempts;
  const bool fails = config_.failure_rate > 0.0 &&
                     task.attempts < config_.max_attempts &&
                     failure_rng_.next_double() < config_.failure_rate;
  if (fails) {
    // The device burns part of the task before the error surfaces.
    duration *= failure_rng_.uniform(0.1, 0.9);
  }

  // Mark the worker busy *before* the body runs: the body may submit
  // nested tasks and re-enter the event loop via a nested taskwait, and
  // nothing else must be dispatched onto this worker meanwhile.
  task.state = TaskState::kRunning;
  task.start_time = start;
  if (occupy_worker) {
    busy_[worker] = true;
  }

  // Run the real body, if any, so functional results are exact; its wall
  // time is irrelevant — virtual time charges `duration`. The body runs
  // under the (recursive) runtime lock, which is what lets it re-enter
  // submit/taskwait. Its witnessed spans ride in the completion event.
  WitnessLog witness;
  if (!fails && version.fn) {
    TaskContext ctx(task.accesses.size(), worker, version.device);
    port_->port_directory().describe(task.accesses, ctx.resolved());
    witness = run_body(task, version, ctx);
  }

  // A nested taskwait inside the body advances virtual time; the parent
  // cannot complete before the clock it observed when its wait returned.
  const Time finish = std::max(start + duration, now_);
  horizon_ = std::max(horizon_, finish);
  if (free_completions_.empty()) {
    free_completions_.push_back(
        static_cast<std::uint32_t>(completions_.size()));
    completions_.emplace_back();
  }
  const std::uint32_t slot = free_completions_.back();
  free_completions_.pop_back();
  completions_[slot] = {id,    worker, start, finish, occupy_worker,
                        fails, std::move(witness)};
  VERSA_CHECK_MSG(finish >= now_, "event scheduled in the past");
  pending_.push_back(Pending{finish, next_seq_++, slot});
  std::push_heap(pending_.begin(), pending_.end(), Later{});
}

bool SimExecutor::complete_next() {
  if (pending_.empty()) return false;
  std::pop_heap(pending_.begin(), pending_.end(), Later{});
  const Pending next = pending_.back();
  pending_.pop_back();
  now_ = next.finish;
  // Move the record out first: the port calls below start new tasks,
  // which take completion slots and may grow the vector.
  const Completion done = std::move(completions_[next.slot]);
  free_completions_.push_back(next.slot);
  if (done.occupy_worker) {
    busy_[done.worker] = false;
  }
  if (done.fails) {
    port_->port_failed(done.id, done.worker, done.start, done.finish);
  } else {
    port_->port_complete(done.id, done.worker, done.start, done.finish,
                         done.witness);
  }
  return true;
}

void SimExecutor::pump() {
  // A pop that missed stays a miss until work arrives: starting a task
  // only removes work, and a worker freed by a completion is swept by the
  // pump that follows the completion.
  do {
    work_arrived_ = false;
    for (WorkerId w = 0; w < machine_.worker_count(); ++w) {
      if (busy_[w]) continue;
      const TaskId id = port_->port_scheduler().pop_task(w);
      if (id == kInvalidTask) continue;
      start_task(w, id);
    }
  } while (work_arrived_);
}

template <typename DonePredicate>
void SimExecutor::run_until(DonePredicate done) {
  const TaskGraph& graph = port_->port_graph();
  pump();
  while (!done(graph)) {
    // pump() left no idle worker with work it could pop, so with nothing
    // pending no later step can make progress.
    VERSA_CHECK_MSG(complete_next(),
                    "simulation deadlock: unfinished tasks but no events "
                    "(task with no runnable version, or scheduler bug)");
    pump();
  }
}

void SimExecutor::wait_all() {
  versa::RecursiveLockGuard lock(port_->port_mutex());
  run_until([](const TaskGraph& graph) { return graph.all_finished(); });
}

void SimExecutor::wait_task(TaskId task) {
  versa::RecursiveLockGuard lock(port_->port_mutex());
  run_until([task](const TaskGraph& graph) {
    return graph.task(task).state == TaskState::kFinished;
  });
}

void SimExecutor::wait_graph(GraphId id) {
  versa::RecursiveLockGuard lock(port_->port_mutex());
  run_until([id](const TaskGraph& graph) { return graph.graph_finished(id); });
}

void SimExecutor::wait_children(TaskId parent) {
  // Entered from inside a task body, which runs under the (recursive)
  // runtime lock — this acquisition nests.
  versa::RecursiveLockGuard lock(port_->port_mutex());
  TaskGraph& graph = port_->port_graph();
  const WorkerId worker = graph.task(parent).assigned_worker;
  if (graph.task(parent).live_children == 0) return;  // nothing to wait for
  for (;;) {
    // Children may be queued on idle workers with no event yet; and the
    // completion that ends the wait still gets its pump before the parent
    // resumes.
    pump();
    if (graph.task(parent).live_children == 0) break;
    if (complete_next()) continue;
    // No events left but children remain: they can only be sitting on
    // this very worker's queue (it is busy with the waiting parent).
    // Inline-execute them — the OmpSs "task switching at a taskwait"
    // behaviour. Their virtual time overlaps the parent's, a documented
    // approximation.
    const TaskId next = port_->port_scheduler().pop_task(worker);
    VERSA_CHECK_MSG(next != kInvalidTask,
                    "nested taskwait deadlock: children pending but no "
                    "events and no queued work");
    start_task(worker, next, /*occupy_worker=*/false);
  }
}

Time SimExecutor::now() const { return now_; }

Time SimExecutor::flush(const TransferList& ops) {
  // Called with the runtime lock held (taskwait flush path).
  port_->port_mutex().assert_held();
  const Time done = engine_.enqueue(ops, now_);
  horizon_ = std::max(horizon_, done);
  return done;
}

}  // namespace versa
