#include "exec/sim_executor.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"
#include "sanitizer/sanitizer.h"

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

void SimExecutor::attach(ExecutorPort& port) { Executor::attach(port); }

void SimExecutor::acquire_for(Task& task, SpaceId space) {
  if (task.acquired_space == space) return;
  TransferList ops;
  port_->port_directory().acquire(task.accesses, space, ops);
  task.transfers_ready_time = engine_.enqueue(ops, queue_.now());
  task.acquired_space = space;
  horizon_ = std::max(horizon_, task.transfers_ready_time);
}

void SimExecutor::task_queued(Task& task, WorkerId worker) {
  // Called from the scheduler's push, under the runtime lock (contract);
  // the assertion bridges the analysis and is checked dynamically against
  // the held-lock stack. The sim backend acquires synchronously — the
  // event loop is single-threaded, so prefetch stays deterministic.
  port_->port_mutex().assert_held();
  if (config_.prefetch) {
    // Overlap: start this task's copies now, while workers compute.
    acquire_for(task, machine_.worker(worker).space);
  }
  // Actual dispatch happens in pump(), driven by the wait loops.
}

void SimExecutor::work_available() {}

void SimExecutor::start_task(WorkerId worker, TaskId id, bool occupy_worker) {
  Task& task = port_->port_graph().task(id);
  VERSA_CHECK(task.state == TaskState::kQueued);
  // Re-home stolen tasks: the steal path no longer writes the graph, so
  // the executor records the actual worker here.
  task.assigned_worker = worker;
  const TaskVersion& version =
      port_->port_registry().version(task.chosen_version);
  const SpaceId space = machine_.worker(worker).space;
  acquire_for(task, space);

  const Time start = std::max(queue_.now(), task.transfers_ready_time);
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
  // submit/taskwait.
  if (!fails && version.fn) {
    const TaskId previous = current_task_;
    current_task_ = id;
    TaskContext ctx(task.accesses, port_->port_directory(), worker,
                    version.device);
    // Sanitizing: collect the spans the body reports and hand them to the
    // checker before the completion event can process this task.
    sanitize::AccessSanitizer* sanitizer = port_->port_sanitizer();
    WitnessLog witness;
    if (sanitizer != nullptr) ctx.set_witness_log(&witness);
    version.fn(ctx);
    if (sanitizer != nullptr) sanitizer->record_witness(id, std::move(witness));
    current_task_ = previous;
  }

  // A nested taskwait inside the body advances virtual time; the parent
  // cannot complete before the clock it observed when its wait returned.
  const Time finish = std::max(start + duration, queue_.now());
  horizon_ = std::max(horizon_, finish);
  queue_.schedule_at(
      finish, [this, id, worker, start, finish, occupy_worker, fails] {
        // Completion events fire from queue_.step() inside run_until_done,
        // with the runtime lock held by the enclosing wait entry point;
        // re-assert it for the analysis (a lambda is a separate function)
        // and, dynamically, against the held-lock stack.
        port_->port_mutex().assert_held();
        if (occupy_worker) {
          busy_[worker] = false;
        }
        if (fails) {
          port_->port_failed(id, worker, start, finish);
        } else {
          port_->port_complete(id, worker, start, finish);
        }
        pump();
      });
}

void SimExecutor::pump() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (WorkerId w = 0; w < machine_.worker_count(); ++w) {
      if (busy_[w]) continue;
      const TaskId id = port_->port_scheduler().pop_task(w);
      if (id == kInvalidTask) continue;
      start_task(w, id);
      progress = true;
    }
  }
}

void SimExecutor::run_until_done(TaskId awaited) {
  TaskGraph& graph = port_->port_graph();
  run_until([&] {
    if (awaited != kInvalidTask) {
      return graph.task(awaited).state == TaskState::kFinished;
    }
    return graph.all_finished();
  });
}

void SimExecutor::run_until_graph_done(GraphId awaited) {
  TaskGraph& graph = port_->port_graph();
  run_until([&] { return graph.graph_finished(awaited); });
}

template <typename DonePredicate>
void SimExecutor::run_until(DonePredicate done) {
  pump();
  while (!done()) {
    if (queue_.step()) {
      pump();
      continue;
    }
    pump();
    if (queue_.empty() && !done()) {
      VERSA_CHECK_MSG(false,
                      "simulation deadlock: unfinished tasks but no events "
                      "(task with no runnable version, or scheduler bug)");
    }
  }
}

void SimExecutor::wait_all() {
  versa::RecursiveLockGuard lock(port_->port_mutex());
  run_until_done(kInvalidTask);
}

void SimExecutor::wait_task(TaskId task) {
  versa::RecursiveLockGuard lock(port_->port_mutex());
  run_until_done(task);
}

void SimExecutor::wait_graph(GraphId graph) {
  versa::RecursiveLockGuard lock(port_->port_mutex());
  run_until_graph_done(graph);
}

void SimExecutor::wait_children(TaskId parent) {
  // Entered from inside a task body, which runs under the (recursive)
  // runtime lock — this acquisition nests.
  versa::RecursiveLockGuard lock(port_->port_mutex());
  TaskGraph& graph = port_->port_graph();
  const WorkerId worker = graph.task(parent).assigned_worker;
  while (graph.task(parent).live_children > 0) {
    pump();  // children may be queued on idle workers with no event yet
    if (graph.task(parent).live_children == 0) break;
    if (queue_.step()) continue;
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

Time SimExecutor::now() const { return queue_.now(); }

Time SimExecutor::flush(const TransferList& ops) {
  // Called with the runtime lock held (taskwait flush path).
  port_->port_mutex().assert_held();
  const Time done = engine_.enqueue(ops, queue_.now());
  horizon_ = std::max(horizon_, done);
  return done;
}

}  // namespace versa
