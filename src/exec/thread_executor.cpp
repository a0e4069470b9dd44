#include "exec/thread_executor.h"

#include <thread>

#include "common/check.h"

namespace versa {

ThreadExecutor::ThreadExecutor(const Machine& machine,
                               ThreadExecutorConfig config)
    : machine_(machine),
      config_(config),
      epoch_(std::chrono::steady_clock::now()) {
  VERSA_CHECK(config.time_scale > 0.0);
}

ThreadExecutor::~ThreadExecutor() {
  stop_.store(true, std::memory_order_release);
  bump_wake();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadExecutor::attach(ExecutorPort& port) {
  Executor::attach(port);
  threads_.reserve(machine_.worker_count());
  for (WorkerId w = 0; w < machine_.worker_count(); ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

Time ThreadExecutor::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double>(elapsed).count();
}

std::uint64_t ThreadExecutor::wake_snapshot() {
  versa::LockGuard lock(wake_mutex_);
  return wake_epoch_;
}

void ThreadExecutor::bump_wake() {
  {
    versa::LockGuard lock(wake_mutex_);
    ++wake_epoch_;
  }
  wake_cv_.notify_all();
}

void ThreadExecutor::wait_wake(std::uint64_t seen) {
  versa::UniqueLock lock(wake_mutex_);
  while (!stop_.load(std::memory_order_acquire) && wake_epoch_ == seen) {
    wake_cv_.wait(lock.native());
  }
}

void ThreadExecutor::task_queued(Task&, WorkerId) {
  // Called under the runtime lock. Data is staged by the executing worker
  // in run_one; the queues live in the scheduler and the push is already
  // visible, so bumping the epoch here closes the pop-then-sleep race.
  bump_wake();
}

void ThreadExecutor::work_available() { bump_wake(); }

bool ThreadExecutor::run_one(WorkerId worker) {
  // Fast path: dequeue already-placed work (own queue, then steals)
  // without the runtime lock.
  TaskId id = port_->port_scheduler().try_pop_queued(worker);

  const TaskVersion* version = nullptr;
  Task* task = nullptr;
  std::uint64_t data_set_size = 0;
  {
    versa::RecursiveLockGuard lock(port_->port_mutex());
    if (id == kInvalidTask) {
      // Fallback for policies whose dispatch needs the runtime lock
      // (fifo's graph scan, versioning's learning pool).
      id = port_->port_scheduler().pop_task(worker);
    }
    if (id == kInvalidTask) return false;

    task = &port_->port_graph().task(id);  // stable ref (chunked TaskStore)
    VERSA_CHECK(task->state == TaskState::kQueued);
    // The steal fast path cannot touch the graph: the thief re-homes the
    // task (and traces the steal) here, under the runtime lock.
    port_->port_scheduler().task_started(*task, worker);
    version = &port_->port_registry().version(task->chosen_version);
    task->state = TaskState::kRunning;
    data_set_size = task->data_set_size;
  }

  // Off the runtime lock: stage the data into the executing worker's
  // space, once, and resolve the body's arguments in the same data-lock
  // critical section. The task is running, so its graph cannot retire
  // (and its regions cannot be unregistered) until after this acquire.
  TransferList ops;  // accounting only — data lives in host storage
  TaskContext ctx(version->fn ? task->accesses.size() : 0, worker,
                  version->device);
  port_->port_directory().acquire(task->accesses,
                                  machine_.worker(worker).space, ops,
                                  version->fn ? ctx.resolved() : nullptr);
  // The body timer starts here, after staging: a profile sample is the
  // body (and the emulation padding below), not the runtime's lock waits.
  // The body runs off-lock without touching shared runtime structures;
  // its witnessed spans reach the sanitizer with the locked completion
  // report.
  const Time start = now();
  WitnessLog witness;
  if (version->fn) witness = run_body(*task, *version, ctx);
  if (config_.emulate_costs && version->cost != nullptr) {
    // Device-speed emulation: pad the attempt out to the modelled
    // duration so wall-clock measurements carry the modelled ratios.
    const Duration modelled =
        version->cost->mean_duration(data_set_size) * config_.time_scale;
    const Duration spent = now() - start;
    if (modelled > spent) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(modelled - spent));
    }
  }
  const Time finish = now();

  {
    versa::RecursiveLockGuard lock(port_->port_mutex());
    port_->port_complete(id, worker, start, finish, witness);
  }
  // After the completion is visible: wake workers (successors may have
  // been released) and waiters (all_finished / live_children moved).
  bump_wake();
  return true;
}

void ThreadExecutor::worker_loop(WorkerId worker) {
  while (!stop_.load(std::memory_order_acquire)) {
    const std::uint64_t seen = wake_snapshot();
    if (run_one(worker)) continue;
    // The pop failed after the snapshot; any push after the pop bumps the
    // epoch past `seen`, so this wait cannot miss it.
    wait_wake(seen);
  }
}

void ThreadExecutor::wait_children(TaskId parent) {
  // Called from inside `parent`'s body on its worker thread. Work while
  // waiting (the OmpSs task-switching behaviour): execute queued tasks —
  // children included — instead of blocking the worker.
  WorkerId worker;
  {
    versa::RecursiveLockGuard lock(port_->port_mutex());
    Task& task = port_->port_graph().task(parent);
    if (task.live_children == 0) return;
    worker = task.assigned_worker;
  }
  for (;;) {
    const std::uint64_t seen = wake_snapshot();
    {
      versa::RecursiveLockGuard lock(port_->port_mutex());
      if (port_->port_graph().task(parent).live_children == 0) return;
    }
    if (run_one(worker)) continue;
    wait_wake(seen);
  }
}

template <typename Predicate>
void ThreadExecutor::wait_until(Predicate done) {
  for (;;) {
    const std::uint64_t seen = wake_snapshot();
    {
      versa::RecursiveLockGuard lock(port_->port_mutex());
      if (done(port_->port_graph())) return;
    }
    wait_wake(seen);
  }
}

void ThreadExecutor::wait_all() {
  wait_until([](const TaskGraph& graph) { return graph.all_finished(); });
}

void ThreadExecutor::wait_task(TaskId task) {
  wait_until([task](const TaskGraph& graph) {
    return graph.task(task).state == TaskState::kFinished;
  });
}

void ThreadExecutor::wait_graph(GraphId id) {
  // Many client threads can block here concurrently, each on its own
  // graph root.
  wait_until([id](const TaskGraph& graph) { return graph.graph_finished(id); });
}

Time ThreadExecutor::flush(const TransferList&) {
  // Host storage is authoritative in this backend; flushes are pure
  // accounting (already recorded by the directory).
  return now();
}

}  // namespace versa
