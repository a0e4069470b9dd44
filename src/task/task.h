// Task instances.
//
// A Task is one invocation of a multi-version task type: its dependence
// clauses, the version the scheduler chose, dependency bookkeeping, and the
// timestamps the reporters consume. Task bodies receive a TaskContext that
// exposes the accessed regions (and their host storage, when present).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/types.h"
#include "task/access.h"

namespace versa {

/// Index into a TaskGraph's successor-edge pool; kNoEdge ends a list.
using EdgeId = std::uint32_t;
constexpr EdgeId kNoEdge = ~EdgeId{0};

enum class TaskState : std::uint8_t {
  kCreated,   ///< submitted, dependencies unsatisfied
  kReady,     ///< dependencies satisfied, waiting for the scheduler
  kQueued,    ///< assigned to a worker queue
  kRunning,   ///< executing
  kFinished,  ///< done
};

const char* to_string(TaskState state);

/// Execution-time view handed to task bodies. The executor sizes it for
/// the task's accesses and fills the resolved arguments in one directory
/// critical section (DataDirectory::describe, or acquire on the thread
/// backend) before the body runs; bodies then read them lock-free without
/// touching shared structures. Up to kInlineArgs arguments live inside the
/// context; only wider access lists spill to the heap.
class TaskContext {
 public:
  static constexpr std::size_t kInlineArgs = 8;

  TaskContext(std::size_t arg_count, WorkerId worker, DeviceKind device);
  TaskContext(const TaskContext&) = delete;
  TaskContext& operator=(const TaskContext&) = delete;

  /// Storage for the arg_count() resolved arguments, in clause order.
  ResolvedArg* resolved() { return args_; }

  /// Host pointer of the i-th access clause (nullptr for virtual regions).
  void* arg(std::size_t index) const;

  /// Byte size of the i-th access clause.
  std::uint64_t arg_size(std::size_t index) const;

  std::size_t arg_count() const { return count_; }

  WorkerId worker() const { return worker_; }
  DeviceKind device() const { return device_; }

  /// Attach the sanitizer witness log for this execution. Executors call
  /// this before running the body iff a sanitizer is active; bodies never
  /// see the difference (AccessWitness no-ops on a null log).
  void set_witness_log(WitnessLog* log) { witness_ = log; }

 private:
  friend class AccessWitness;
  std::array<ResolvedArg, kInlineArgs> inline_;
  std::unique_ptr<ResolvedArg[]> spill_;
  ResolvedArg* args_;
  std::size_t count_;
  WorkerId worker_;
  DeviceKind device_;
  WitnessLog* witness_ = nullptr;
};

/// Witness handle task bodies use to report the byte spans they actually
/// touch (DESIGN.md §12). In spec/race sanitize modes the checker compares
/// these against the task's declared accesses; with the sanitizer off every
/// call is a branch-on-null, so kernels keep their witness calls
/// unconditionally. Arg-indexed methods report relative to the resolved
/// clause (offset 0 = start of the clause); touch_bytes reports a raw
/// region-absolute span, for bodies that address regions outside their own
/// clause resolution.
class AccessWitness {
 public:
  explicit AccessWitness(TaskContext& ctx) : ctx_(ctx) {}

  /// Whole resolved span of clause `index`.
  void read(std::size_t index) { span(index, AccessMode::kIn, 0, kWhole); }
  void write(std::size_t index) { span(index, AccessMode::kOut, 0, kWhole); }
  void read_write(std::size_t index) {
    span(index, AccessMode::kInOut, 0, kWhole);
  }

  /// Sub-span of clause `index`, clamped to the clause's resolved size.
  void read_range(std::size_t index, std::uint64_t off, std::uint64_t len) {
    span(index, AccessMode::kIn, off, len);
  }
  void write_range(std::size_t index, std::uint64_t off, std::uint64_t len) {
    span(index, AccessMode::kOut, off, len);
  }
  void read_write_range(std::size_t index, std::uint64_t off,
                        std::uint64_t len) {
    span(index, AccessMode::kInOut, off, len);
  }

  /// Raw region-absolute span, bypassing clause resolution.
  void touch_bytes(RegionId region, AccessMode mode, std::uint64_t offset,
                   std::uint64_t length);

 private:
  static constexpr std::uint64_t kWhole = ~std::uint64_t{0};
  void span(std::size_t index, AccessMode mode, std::uint64_t off,
            std::uint64_t len);
  TaskContext& ctx_;
};

/// A task body. May be empty (synthetic workloads driven purely by cost
/// models in simulation).
using TaskFn = std::function<void(TaskContext&)>;

struct Task {
  TaskId id = kInvalidTask;
  TaskTypeId type = kInvalidTaskType;
  AccessList accesses;
  /// Sum of accessed region sizes, each region counted once even when it
  /// appears in several clauses (paper §IV-B footnote 2). This is the key
  /// of the profile's data-set-size group.
  std::uint64_t data_set_size = 0;
  std::string label;

  /// OmpSs `priority` clause analogue: higher runs earlier among tasks
  /// queued on the same worker. Useful for critical-path tasks like
  /// Cholesky's potrf (§V-B2: "it acts like a bottleneck and if it is not
  /// run as soon as its data dependencies are satisfied, there is less
  /// parallelism to exploit").
  int priority = 0;

  /// Graph root this task belongs to and the tenant that owns that graph
  /// (service mode, DESIGN.md §10). Single-graph programs leave both at the
  /// defaults and see no behaviour change.
  GraphId graph = kDefaultGraph;
  TenantId tenant = kDefaultTenant;

  TaskState state = TaskState::kCreated;
  VersionId chosen_version = kInvalidVersion;
  WorkerId assigned_worker = kInvalidWorker;

  /// Nesting: the task whose body submitted this one (kInvalidTask for
  /// master-thread submissions) and the number of direct children still
  /// unfinished — a taskwait inside a task body waits for exactly these
  /// (OmpSs taskwait is children-scoped, not a global barrier).
  TaskId parent = kInvalidTask;
  std::uint32_t live_children = 0;

  /// Split lineage (adaptive granularity, DESIGN.md §11). A re-tiled
  /// submission leaves a *shell* task — the original type and accesses,
  /// never registered with the analyzer, never released — and the
  /// controller's children carry split_parent pointing at it. The shell
  /// retires (TaskGraph::finish_stub) when split_live reaches zero;
  /// split_accum then holds the children's summed execution time, the
  /// observation the controller's reversal CUSUM consumes.
  TaskId split_parent = kInvalidTask;
  std::uint32_t split_live = 0;       ///< shell: children not yet finished
  std::uint32_t split_children = 0;   ///< shell: children created
  Duration split_accum = 0.0;         ///< shell: sum of child durations

  /// Fused-batch identity (adaptive granularity). Absorbed siblings point
  /// at the surviving host via fused_into; the host counts the absorbed
  /// siblings in fused_count and remembers the pre-fusion type/size so
  /// completion can feed the controller at the original granularity key.
  TaskId fused_into = kInvalidTask;
  std::uint32_t fused_count = 0;
  TaskTypeId origin_type = kInvalidTaskType;
  std::uint64_t origin_size = 0;

  /// Dependency bookkeeping (guarded by the runtime lock). Successors
  /// form a list threaded through the graph's edge pool, head and tail
  /// here, in edge-creation order (TaskGraph::successors reads it).
  std::uint32_t remaining_deps = 0;
  EdgeId first_successor = kNoEdge;
  EdgeId last_successor = kNoEdge;

  /// Timeline (virtual time under SimExecutor, wall time otherwise).
  Time submit_time = 0.0;
  Time ready_time = 0.0;
  Time start_time = 0.0;
  Time finish_time = 0.0;
  Duration measured_duration = 0.0;

  /// Completion time of this task's prefetched transfers (sim backend).
  Time transfers_ready_time = 0.0;
  /// Space the sim backend's directory acquire ran against (kInvalidSpace
  /// = not yet). Work stealing re-homes a task; the sim re-acquires if
  /// this does not match the executing worker's space.
  SpaceId acquired_space = kInvalidSpace;

  /// Execution-time estimate the scheduler charged to the assigned worker's
  /// busy time; subtracted back on completion (versioning scheduler).
  Duration scheduler_estimate = 0.0;

  /// Execution attempts so far (failure injection: transient device
  /// errors make the runtime reschedule the task; see
  /// SimExecutorConfig::failure_rate).
  std::uint32_t attempts = 0;

  /// Profile cell of (type, data-set-size group), resolved by the
  /// versioning scheduler when the task first becomes ready and kept for
  /// its retries; kNoCell until then and under every other policy.
  CellId profile_cell = kNoCell;
};

}  // namespace versa
