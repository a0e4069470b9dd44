// The versa runtime facade — the OmpSs-like public API.
//
// Typical use (mirrors the pragma annotations of the paper's Figures 1-4):
//
//   Machine machine = make_minotauro_node(8, 2);
//   Runtime rt(machine, config);
//
//   // "#pragma omp task inout(...) input(...)" + "implements" versions:
//   TaskTypeId matmul = rt.declare_task("matmul_tile");
//   rt.add_version(matmul, DeviceKind::kCuda, "cublas", body, cost);
//   rt.add_version(matmul, DeviceKind::kCuda, "cuda",   body, cost);
//   rt.add_version(matmul, DeviceKind::kSmp,  "cblas",  body, cost);
//
//   RegionId a = rt.register_data("A", bytes, ptr);
//   rt.submit(matmul, {Access::in(a), Access::in(b), Access::inout(c)});
//   rt.taskwait();
//
// Thread-safety: submit/taskwait are master-thread calls; task bodies may
// submit nested tasks. The runtime serializes internal state with one
// annotated recursive lock of class kLockRankRuntime (mutex_). Scheduler
// *decision* state therefore needs no locking of its own, as stated in the
// Scheduler contract; the dequeue fast path is the exception and carries
// its own locks (DESIGN.md §9). The graph, analyzer and registry
// aggregates are runtime-lock serialized through the REQUIRES annotations
// on the ExecutorPort accessors; the scalar result fields are
// GUARDED_BY(mutex_) directly. The directory is the deliberate exception:
// it synchronizes itself (one mutex of class `data`), so lookups,
// transfer_cost pricing, and the thread backend's worker-side staging run
// WITHOUT the runtime lock — its accessors carry no runtime capability.
#pragma once

#include <memory>
#include <string>

#include "data/directory.h"
#include "exec/executor.h"
#include "machine/machine.h"
#include "perf/run_stats.h"
#include "profile/profile_store.h"
#include "runtime/config.h"
#include "sched/scheduler.h"
#include "task/dependency_analyzer.h"
#include "task/task_graph.h"
#include "task/version_registry.h"
#include "util/annotated_sync.h"

namespace versa {

namespace core {
class FairShareInterleaver;
}

class Runtime final : public SchedulerContext, public ExecutorPort {
 public:
  /// The machine is borrowed and must outlive the runtime.
  Runtime(const Machine& machine, RuntimeConfig config = {});
  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- task-type / version registration (the `implements` surface) ------
  TaskTypeId declare_task(std::string name);
  VersionId add_version(TaskTypeId type, DeviceKind device, std::string name,
                        TaskFn fn = nullptr, CostModelPtr cost = nullptr);

  // --- data registration -------------------------------------------------
  /// Register application data the runtime manages across memory spaces.
  /// `host_ptr` may be null for virtual (simulation-only) regions.
  RegionId register_data(std::string name, std::uint64_t size,
                         void* host_ptr = nullptr);

  /// Stop managing a region (dynamic workloads freeing blocks). Every
  /// unfinished task touching it must have completed — call after a
  /// taskwait covering its last use. Dirty device copies are discarded;
  /// taskwait_on(region) first if the host copy matters.
  void unregister_data(RegionId region);

  // --- task submission and synchronization --------------------------------
  /// Submit one task instance (function-call analogue of an annotated
  /// task). Dependences derive from `accesses`; readiness may be immediate.
  /// `priority` maps to the OmpSs priority clause: higher-priority tasks
  /// overtake lower-priority ones inside worker queues.
  TaskId submit(TaskTypeId type, AccessList accesses, std::string label = {},
                int priority = 0);

  /// Service-mode submission options (DESIGN.md §10). `graph` must come
  /// from open_graph() (or stay kDefaultGraph). `regranulate` lets a
  /// caller pin one submission to its declared tiling even when the
  /// granularity controller is active (DESIGN.md §11).
  struct SubmitOptions {
    GraphId graph = kDefaultGraph;
    int priority = 0;
    std::string label;
    bool regranulate = true;
  };
  TaskId submit(TaskTypeId type, AccessList accesses, SubmitOptions options);

  // --- adaptive granularity (DESIGN.md §11) -------------------------------
  /// The split/fuse controller, or nullptr when --granularity=off (the
  /// default). Mutable controller state is runtime-lock serialized; read
  /// stats()/breakdown() quiescent (after waits).
  core::GranularityController* granularity() { return granularity_.get(); }
  const core::GranularityController* granularity() const {
    return granularity_.get();
  }

  /// Register how `type` re-tiles / coalesces (see granularity.h). No-ops
  /// when the controller is off, so apps can register unconditionally
  /// without perturbing figure runs.
  void set_split_recipe(TaskTypeId type, core::SplitRecipe recipe);
  void set_fuse_recipe(TaskTypeId type, core::FuseRecipe recipe);

  // --- dependence-spec sanitizer (DESIGN.md §12) --------------------------
  /// The access sanitizer, or nullptr when --sanitize=off (the default:
  /// nothing is constructed, no shadow state exists). Read its report
  /// quiescent (after waits).
  sanitize::AccessSanitizer* sanitizer() { return sanitizer_.get(); }
  const sanitize::AccessSanitizer* sanitizer() const {
    return sanitizer_.get();
  }

  // --- service mode (multi-graph roots) -----------------------------------
  /// Open an independent graph root owned by `tenant`. Tasks submitted
  /// with SubmitOptions{graph} are tracked per graph: wait_graph(graph)
  /// returns when exactly that graph's tasks have finished, regardless of
  /// other tenants' in-flight work.
  GraphId open_graph(TenantId tenant = kDefaultTenant);

  /// Block until every task of `graph` finished. No flush: service-mode
  /// graphs operate on virtual regions (the master-level taskwait()
  /// remains the flushing barrier for single-graph programs).
  void wait_graph(GraphId graph);

  /// Install (or clear, with nullptr) the weighted fair-share dispatch
  /// gate. The gate is borrowed and must outlive every graph submitted
  /// while it is installed; install before submitting service graphs.
  /// Assumes non-nested graphs — see fair_share.h.
  void set_fair_share(core::FairShareInterleaver* gate);

  /// Seed the scheduler's profile table from serialized native-store text
  /// (the service warm-start cache path). kMissing when the scheduler has
  /// no profile table or `text` is empty.
  ProfileLoadResult import_profile_text(const std::string& text);

  /// Serialized native-store text of the learned profile (empty when the
  /// scheduler has no profile table). Call quiescent (e.g. after waits).
  std::string export_profile_text() const;

  /// Barrier: wait for every task, then flush dirty device data to host.
  void taskwait();

  /// Barrier without flushing remote copies (taskwait noflush).
  void taskwait_noflush();

  /// Block until the last writer of `region` finished, then flush just
  /// that region (taskwait on(...)).
  void taskwait_on(RegionId region);

  // --- results ------------------------------------------------------------
  /// Makespan: last task finish or flush completion (virtual seconds under
  /// the sim backend, wall seconds otherwise).
  Time elapsed() const;

  TransferStats transfer_stats() const;

  /// Per-hop transfer timeline for the overlap analyzer (sim backend
  /// only; nullptr under the thread backend, whose copies are virtual).
  const std::vector<TransferRecord>* transfer_records() const;

  const RunStatsCollector& run_stats() const { return run_stats_; }

  /// Outcome of the warm-start profile load (kMissing when no load path
  /// was configured or the first task has not been submitted yet).
  /// Returned by value: the field is lock-guarded, so handing out a
  /// reference would leak it past the critical section.
  ProfileLoadResult profile_load_result() const;

  Scheduler& scheduler() { return *scheduler_; }
  const VersionRegistry& version_registry() const { return registry_; }
  DataDirectory& data_directory() { return directory_; }
  const TaskGraph& task_graph() const { return graph_; }
  const RuntimeConfig& config() const { return config_; }

  // --- SchedulerContext ---------------------------------------------------
  const Machine& machine() const override { return machine_; }
  const VersionRegistry& registry() const override { return registry_; }
  DataDirectory& directory() override { return directory_; }
  TaskGraph& graph() override { return graph_; }
  Time now() const override;
  /// Prefetch hook (SchedulerContext): always reached from a placement
  /// decision made under the runtime lock (task_ready/ready_batch_done or
  /// pop_task's pool fallback), and the executor side touches the
  /// directory, so the requirement is annotated like the port_* siblings.
  void task_assigned(TaskId task, WorkerId worker) override
      VERSA_REQUIRES(mutex_);

  // --- ExecutorPort -------------------------------------------------------
  Scheduler& port_scheduler() override { return *scheduler_; }
  TaskGraph& port_graph() override VERSA_REQUIRES(mutex_) { return graph_; }
  /// No runtime capability required: the directory is internally
  /// synchronized (see the class comment and ExecutorPort).
  DataDirectory& port_directory() override { return directory_; }
  const VersionRegistry& port_registry() override { return registry_; }
  const Machine& port_machine() override { return machine_; }
  void port_complete(TaskId task, WorkerId worker, Time start,
                     Time finish) override VERSA_REQUIRES(mutex_);
  void port_failed(TaskId task, WorkerId worker, Time start,
                   Time finish) override VERSA_REQUIRES(mutex_);
  versa::RecursiveMutex& port_mutex() override
      VERSA_RETURN_CAPABILITY(mutex_) {
    return mutex_;
  }
  sanitize::AccessSanitizer* port_sanitizer() override {
    return sanitizer_.get();
  }

  /// Transient attempt failures observed so far (failure injection).
  std::uint64_t failed_attempts() const;

 private:
  const Machine& machine_;
  RuntimeConfig config_;
  VersionRegistry registry_;
  DataDirectory directory_;
  DependencyAnalyzer analyzer_;
  TaskGraph graph_;
  RunStatsCollector run_stats_;
  /// The runtime lock (lock class kLockRankRuntime; see DESIGN.md §9).
  /// Recursive because task bodies running under the sim event loop may
  /// re-enter submit/taskwait. Mutable so quiescent const accessors
  /// (elapsed, failed_attempts) can lock honestly.
  mutable versa::RecursiveMutex mutex_{lock_order::kLockRankRuntime};
  std::unique_ptr<Scheduler> scheduler_;
  // Destroyed first (declared last): the thread backend joins its workers
  // in its destructor while the rest of the runtime is still alive.
  std::unique_ptr<Executor> executor_;
  Time makespan_ VERSA_GUARDED_BY(mutex_) = 0.0;
  std::uint64_t failed_attempts_ VERSA_GUARDED_BY(mutex_) = 0;
  bool profile_loaded_ VERSA_GUARDED_BY(mutex_) = false;
  ProfileLoadResult profile_load_ VERSA_GUARDED_BY(mutex_);

  /// Service-mode dispatch gate (borrowed; nullptr outside service mode).
  core::FairShareInterleaver* fair_share_ VERSA_GUARDED_BY(mutex_) = nullptr;

  /// Adaptive granularity controller (nullptr when off — the default —
  /// which keeps every submission byte-identical to the pre-controller
  /// path). Controller state is mutated only under the runtime lock.
  std::unique_ptr<core::GranularityController> granularity_;

  /// Dependence-spec sanitizer (nullptr when off — the default). The
  /// runtime-side hooks run under the runtime lock; the sanitizer's own
  /// mutexes (ranks 11/12/15) cover the executor-side witness path.
  std::unique_ptr<sanitize::AccessSanitizer> sanitizer_;

  /// The open fuse window: sibling submissions the controller decided to
  /// coalesce, created in the graph but with analyzer registration
  /// deferred until the window closes. At most one window is open at a
  /// time, and any submission that cannot join it flushes it first, so
  /// dependence registration stays in submission order.
  struct FuseWindow {
    bool open = false;
    TaskTypeId type = kInvalidTaskType;
    GraphId graph = kDefaultGraph;
    TaskId parent = kInvalidTask;
    int priority = 0;
    std::uint32_t limit = 0;
    std::vector<TaskId> members;
  };
  FuseWindow fuse_window_ VERSA_GUARDED_BY(mutex_);

  ProfileStore make_profile_store() const;
  void maybe_load_profile() VERSA_REQUIRES(mutex_);
  void maybe_save_profile();
  /// Register `task` with the analyzer, wire its dependence edges, and
  /// release it if it is already ready (the tail of every submission
  /// path: plain, split children, fused hosts).
  void register_and_release(Task& task) VERSA_REQUIRES(mutex_);
  /// The granularity hook inside submit(): may split the submission into
  /// children or park it in the fuse window. Returns true with `out` set
  /// when it consumed the submission; false lets the plain path proceed.
  bool granular_submit(TaskTypeId type, AccessList& accesses,
                       std::uint64_t data_set_size, SubmitOptions& options,
                       TaskId& out) VERSA_REQUIRES(mutex_);
  /// Close the open fuse window: one member registers as-is, several fold
  /// into the first (the host) via the recipe and the rest retire as
  /// stubs. Called from submissions that cannot join the window and from
  /// every barrier (taskwait*, wait_graph, unregister_data).
  void flush_fuse_window() VERSA_REQUIRES(mutex_);
  /// Max-min gap of the per-worker busy estimates (the split rule's
  /// imbalance term). Reads the scheduler account (rank 20) from under
  /// the runtime lock (rank 10), respecting the lock order.
  Duration busy_spread() const VERSA_REQUIRES(mutex_);
  /// Record a granularity decision into the shared decision trace.
  void trace_granularity(core::TraceEventKind kind, TaskId task,
                         TenantId tenant, TaskTypeId type, std::uint64_t size,
                         Duration spread, std::uint32_t children)
      VERSA_REQUIRES(mutex_);
  void release_ready(const std::vector<TaskId>& ready) VERSA_REQUIRES(mutex_);
  /// Hand `batch` (already gate-approved when a gate is installed) to the
  /// scheduler as one ready batch and poke the executor.
  void dispatch_batch(const std::vector<TaskId>& batch) VERSA_REQUIRES(mutex_);
};

}  // namespace versa
