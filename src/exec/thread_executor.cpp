#include "exec/thread_executor.h"

#include <thread>

#include "common/check.h"
#include "sanitizer/sanitizer.h"

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

namespace {

/// Task identity of the calling thread's in-flight body (nested-submission
/// attribution); kInvalidTask on the master and on idle workers.
thread_local TaskId tls_current_task = kInvalidTask;

}  // namespace

TaskId ThreadExecutor::current_task() const { return tls_current_task; }

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

    task = &port_->port_graph().task(id);  // stable ref (deque storage)
    VERSA_CHECK(task->state == TaskState::kQueued);
    // Re-home stolen tasks: the steal fast path cannot touch the graph,
    // so the thief records itself here, under the runtime lock.
    task->assigned_worker = worker;
    version = &port_->port_registry().version(task->chosen_version);
    task->state = TaskState::kRunning;
    data_set_size = task->data_set_size;
  }

  // Off the runtime lock: stage the data into the executing worker's
  // space, once. The task is running, so its graph cannot retire (and
  // its regions cannot be unregistered) until after this acquire.
  TransferList ops;  // accounting only — data lives in host storage
  port_->port_directory().acquire(task->accesses,
                                  machine_.worker(worker).space, ops);
  // Resolve argument pointers (region descriptors are immutable, the
  // directory lookup synchronizes itself); the body then runs without
  // touching shared runtime structures.
  TaskContext ctx(task->accesses, port_->port_directory(), worker,
                  version->device);
  // Sanitizing: the witness log collects off-lock alongside the body; the
  // spans reach the checker before the locked completion report below.
  sanitize::AccessSanitizer* sanitizer = port_->port_sanitizer();
  WitnessLog witness;
  if (sanitizer != nullptr) ctx.set_witness_log(&witness);
  const Time start = now();

  const TaskId previous = tls_current_task;
  tls_current_task = id;
  if (version->fn) {
    version->fn(ctx);
  }
  tls_current_task = previous;
  if (sanitizer != nullptr) sanitizer->record_witness(id, std::move(witness));
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
    port_->port_complete(id, worker, start, finish);
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

void ThreadExecutor::wait_all() {
  for (;;) {
    const std::uint64_t seen = wake_snapshot();
    {
      versa::RecursiveLockGuard lock(port_->port_mutex());
      if (port_->port_graph().all_finished()) return;
    }
    wait_wake(seen);
  }
}

void ThreadExecutor::wait_task(TaskId task) {
  for (;;) {
    const std::uint64_t seen = wake_snapshot();
    {
      versa::RecursiveLockGuard lock(port_->port_mutex());
      if (port_->port_graph().task(task).state == TaskState::kFinished) {
        return;
      }
    }
    wait_wake(seen);
  }
}

void ThreadExecutor::wait_graph(GraphId graph) {
  // Same wake-epoch protocol as wait_all, settling on one graph root; many
  // client threads can block here concurrently, each on its own graph.
  for (;;) {
    const std::uint64_t seen = wake_snapshot();
    {
      versa::RecursiveLockGuard lock(port_->port_mutex());
      if (port_->port_graph().graph_finished(graph)) return;
    }
    wait_wake(seen);
  }
}

Time ThreadExecutor::flush(const TransferList&) {
  // Host storage is authoritative in this backend; flushes are pure
  // accounting (already recorded by the directory).
  return now();
}

}  // namespace versa
