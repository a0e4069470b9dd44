// Versioning scheduler — the paper's contribution (§IV).
//
// Keeps TaskVersionSet profiling tables (Table I): per task type and per
// data-set-size group, the mean execution time and run count of every
// version. Two phases per group:
//
//  * Initial learning phase — while some runnable version of the group has
//    fewer than λ recorded runs: versions are picked round-robin and
//    handed to the least-busy compatible worker, with at most λ in-flight
//    learning runs per version so a burst of ready tasks cannot flood a
//    slow implementation before any measurement exists. Surplus ready
//    tasks wait in a central pool; idle workers pull from it, preferring
//    under-sampled versions of their own device kind, then the fastest
//    known one — so the machine stays busy while the table fills in.
//
//  * Reliable information phase — every ready task goes to its *earliest
//    executor*: the worker minimizing (estimated busy time + estimated
//    execution time of the best version runnable on that worker). The
//    fastest executor usually wins, but an idle slower worker that would
//    finish first gets the task (Figure 5).
//
// A worker's estimated busy time is the sum of the *current* mean execution
// times of the tasks in its queue plus the task it is running (§IV-B), so
// estimates sharpen as the table learns. Since the scheduling-core refactor
// this quantity is maintained incrementally by the shared load account
// (src/sched/core/load_account.h): pushes charge, pops move the charge to
// the running slot, completions release it, and a mean movement re-prices
// the queued charges of exactly that profile cell — no queue rescans.
// Placement walks the per-kind finish-time index in increasing busy order
// and prunes once busy + mean cannot beat the best finish. Profiling never
// stops: completion times keep updating the means in both phases, and a
// task arriving with a previously unseen data-set size re-enters the
// learning phase for that new group only.
//
// A task's profile cell (its type and size group) is resolved once, with
// one hash lookup, when the task first reaches task_ready, and kept in
// Task::profile_cell so a retry after a failure reuses it. Every later
// question — reliability, means and counts at placement, the account's
// price id, the learning slots, the pool's per-group counts — is an array
// read by that CellId.
#pragma once

#include <vector>

#include "sched/profile_table.h"
#include "sched/scheduler.h"

namespace versa {

class VersioningScheduler : public QueueScheduler {
 public:
  explicit VersioningScheduler(ProfileConfig config = {});

  const char* name() const override { return "versioning"; }

  /// Ablation switch: when set, reliable-phase placement ignores worker
  /// busy time and always picks the fastest version's least-queued worker
  /// — i.e. the *fastest executor* instead of the *earliest executor*.
  /// This is exactly the strawman Figure 5 argues against; exposed as the
  /// "versioning-fastest" policy for the ablation benches.
  void set_fastest_executor_only(bool enabled) {
    fastest_executor_only_ = enabled;
  }
  void attach(SchedulerContext& ctx) override;
  void task_ready(Task& task) override;
  TaskId pop_task(WorkerId worker) override;
  void task_completed(Task& task, WorkerId worker, Duration measured) override;
  void task_failed(Task& task, WorkerId worker) override;
  Duration estimated_busy(WorkerId worker) const override;
  bool has_pending() const override;

  const ProfileTable& profile() const;
  ProfileTable& mutable_profile();

  /// Tasks dispatched through the learning phase so far (forced version
  /// sampling). Zero on a fully warm-started run; the warm-start tests and
  /// benches assert on it.
  std::uint64_t learning_executions() const { return learning_executions_; }

  /// Debug aid for tests: every estimated_busy() call cross-checks the
  /// incremental account against the O(queue) rescan reference and aborts
  /// on divergence. Off by default (it reintroduces the rescan cost).
  void set_debug_cross_check(bool enabled) { debug_cross_check_ = enabled; }

 protected:
  /// Extension hook: extra cost charged for placing `task` on `worker`
  /// (zero here; the locality-aware subclass adds a transfer estimate).
  virtual Duration placement_penalty(const Task& task, WorkerId worker) const;

  /// The profile entry of (task's cell, version): a mean movement
  /// re-prices exactly the tasks that mean priced.
  PriceId price_id(Task& task, const TaskVersion& version) override;

 private:
  ProfileConfig config_;
  bool fastest_executor_only_ = false;
  bool debug_cross_check_ = false;
  std::uint64_t learning_executions_ = 0;
  std::optional<ProfileTable> profile_;  // built at attach (needs registry)

  struct PooledTask {
    TaskId id;
    CellId cell;
  };

  /// Ready tasks not yet assigned to any worker (learning back-pressure),
  /// in arrival order.
  std::vector<PooledTask> pool_;

  /// Policy state of one profile cell, indexed by CellId (grown as the
  /// profile creates cells).
  struct CellState {
    /// Pooled tasks of the cell: drain_pool stops once every task left to
    /// scan belongs to a cell that failed in the same pass.
    std::uint32_t pooled = 0;
    /// drain_pool pass in which the cell's try_place failed.
    std::uint64_t blocked_pass = 0;
    /// Round-robin cursor for the learning phase.
    std::size_t rr_cursor = 0;
    /// Learning-phase in-flight run count, by TaskVersion::ordinal.
    std::vector<std::uint32_t> learning_inflight;
  };
  std::vector<CellState> cells_;
  std::uint64_t drain_pass_ = 0;

  /// Per-worker placement penalties of the task being placed (scratch
  /// storage of assign_earliest_executor, kept to avoid a per-task
  /// allocation).
  std::vector<Duration> penalty_scratch_;

  /// The task's profile cell: resolved on first use, then read from the
  /// task.
  CellId cell_of(Task& task) {
    if (task.profile_cell == kNoCell) resolve_cell(task);
    VERSA_DCHECK(profile_->cell_type(task.profile_cell) == task.type);
    return task.profile_cell;
  }
  void resolve_cell(Task& task);

  /// All runnable versions (device has >= 1 worker) recorded >= λ times
  /// in `cell` (of task type `type`)?
  bool reliable_runnable(CellId cell, TaskTypeId type) const;

  /// The charge for placing `version` of `task` when no mean exists yet:
  /// the group mean, else the task's frozen scheduler_estimate (a failed
  /// task re-entering keeps its last charge), else the version's mean from
  /// the nearest size group — zero only when the version never ran at all.
  Duration estimate_for(const Task& task, CellId cell,
                        const TaskVersion& version) const;

  /// Try to place `task` of `cell` (learning slot or earliest executor).
  /// Returns false if it must wait in the pool.
  bool try_place(Task& task, CellId cell);

  /// Place every placeable pooled task in pool order, preserving the
  /// order of the rest. At most one try_place per (type, size group) fails
  /// per pass: a failure depends only on the group's profile counts and
  /// learning in-flight counts, which a placement of another group cannot
  /// move and one of its own can only raise, so the group's later tasks
  /// stay without another try, and the pass ends once every unscanned
  /// task belongs to a group that failed.
  void drain_pool();

  void assign_earliest_executor(Task& task, CellId cell);

  /// Learning bookkeeping around push_to_worker.
  void push_learning(Task& task, CellId cell, const TaskVersion& version,
                     WorkerId worker);

  /// A run of `version` in `cell` ended (completed or failed): lower the
  /// version's learning in-flight count, if it is above zero.
  void end_learning_run(CellId cell, const TaskVersion& version);

  WorkerId least_busy_worker(const TaskVersion& version) const;

  /// Pool fallback for an idle worker: the first pooled task whose type
  /// has a version of this worker's device kind, with that kind's
  /// under-sampled version first, then its fastest known one.
  TaskId pull_from_pool(WorkerId worker);
};

}  // namespace versa
