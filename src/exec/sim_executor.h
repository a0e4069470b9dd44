// Discrete-event (virtual time) execution backend.
//
// Single-threaded by design: events fire in deterministic order, durations
// come from version cost models through per-worker noise streams, and
// transfers occupy modelled interconnect links via the TransferEngine. Task
// bodies, when present, really execute (virtually instantaneous) so
// functional results remain correct under simulation.
//
// Locking: the simulation itself needs no concurrency, but its state is
// reached through the same ExecutorPort as the thread backend, so the
// annotated lock discipline applies. Each blocking entry point (wait_all,
// wait_task, wait_children) takes the runtime lock once and holds it for
// the whole event loop — the annotations are then truthful rather than
// waived, and the recursive runtime mutex covers task bodies that re-enter
// the public runtime API (nested submit / taskwait) from under the loop.
//
// Events: the only event is a task completion, so the loop keeps its own
// min-heap of (finish, seq, slot) entries instead of a general callback
// queue. Equal finish times complete in start order (seq), each entry
// names a reused completion record, and every completion is followed by
// exactly one pump() of the idle workers, run by the wait loop that
// popped it. A pump sweeps the idle workers again only if work arrived
// during its sweep (task_queued or work_available): a pop that missed can
// only hit after a push or a new ready task, so a sweep with no arrival
// ends the pump.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/executor.h"
#include "sim/noise.h"
#include "util/annotated_sync.h"

namespace versa {

struct SimExecutorConfig {
  sim::NoiseConfig noise;
  std::uint64_t seed = 42;
  /// Acquire and launch a task's copies the moment it lands on a worker
  /// queue (transfer/compute overlap + prefetch, as enabled in §V-A).
  /// When false, copies start only when the worker picks the task up.
  bool prefetch = true;
  /// Virtual duration of versions lacking a cost model.
  Duration default_task_duration = 1e-3;
  /// Failure injection: probability that a task attempt fails transiently
  /// (device hiccup). Failed attempts burn part of the task's time on the
  /// worker, then the task is rescheduled — possibly to another version.
  double failure_rate = 0.0;
  /// Attempts after which an attempt is forced to succeed, bounding
  /// worst-case retries. Must be >= 1.
  std::uint32_t max_attempts = 4;
};

class SimExecutor final : public Executor {
 public:
  SimExecutor(const Machine& machine, SimExecutorConfig config);

  void task_queued(Task& task, WorkerId worker) override;
  void work_available() override;
  void wait_all() override;
  void wait_task(TaskId task) override;
  void wait_graph(GraphId graph) override;
  void wait_children(TaskId parent) override;
  Time now() const override;
  Time flush(const TransferList& ops) override;

  /// Completion time of everything modelled so far, including flush
  /// copies that finish after the last task.
  Time horizon() const { return horizon_; }

  const TransferEngine& transfer_engine() const { return engine_; }

 private:
  const Machine& machine_;
  SimExecutorConfig config_;
  // Simulation state below is reached only with the runtime lock held
  // (entry points acquire it; task_assigned/flush arrive with it held by
  // contract and re-assert it).
  TransferEngine engine_;
  std::vector<sim::NoiseModel> noise_;
  std::vector<bool> busy_;
  /// Set by task_queued and work_available; pump() clears it before each
  /// sweep and repeats the sweep while it comes back set. A nested pump
  /// (a task body's taskwait) also ends on a sweep without arrivals, so
  /// the state it leaves needs no further sweep either.
  bool work_arrived_ = false;
  Time horizon_ = 0.0;
  Rng failure_rng_;

  /// What a scheduled completion event reports when it fires.
  struct Completion {
    TaskId id = kInvalidTask;
    WorkerId worker = kInvalidWorker;
    Time start = 0.0;
    Time finish = 0.0;
    bool occupy_worker = true;
    bool fails = false;
    WitnessLog witness;
  };
  /// acquire_for's copy list, kept to avoid a per-task allocation
  /// (acquire_for never re-enters itself).
  TransferList transfer_scratch_;
  /// Records of in-flight completion events, reused through a free list.
  std::vector<Completion> completions_;
  std::vector<std::uint32_t> free_completions_;

  /// A pending completion: the record in `slot` fires at `finish`; `seq`
  /// (start order) breaks ties so runs are deterministic.
  struct Pending {
    Time finish;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.finish != b.finish) return a.finish > b.finish;
      return a.seq > b.seq;
    }
  };
  /// Min-heap on (finish, seq), kept with std::push_heap/pop_heap.
  std::vector<Pending> pending_;
  std::uint64_t next_seq_ = 0;
  /// The virtual clock: the finish time of the last completion popped.
  Time now_ = 0.0;

  /// Acquire `task`'s data for `space` and record its transfer-done time.
  void acquire_for(Task& task, SpaceId space)
      VERSA_REQUIRES(port_->port_mutex());

  /// Pop work for every idle worker until a sweep sees no work arrive.
  void pump() VERSA_REQUIRES(port_->port_mutex());

  /// Launch `id` on `worker`. `occupy_worker` is false when a worker
  /// blocked in a nested taskwait inline-executes its own queued children
  /// (it is already marked busy by the waiting parent).
  void start_task(WorkerId worker, TaskId id, bool occupy_worker = true)
      VERSA_REQUIRES(port_->port_mutex());
  /// Pop the earliest pending completion, advance the clock to it and
  /// report it. Returns false when nothing is pending. The caller pumps.
  bool complete_next() VERSA_REQUIRES(port_->port_mutex());
  /// Drive the event loop until `done(graph)` holds (shared body of
  /// wait_all, wait_task and wait_graph).
  template <typename DonePredicate>
  void run_until(DonePredicate done) VERSA_REQUIRES(port_->port_mutex());
};

}  // namespace versa
