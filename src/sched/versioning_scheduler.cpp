#include "sched/versioning_scheduler.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"

namespace versa {

VersioningScheduler::VersioningScheduler(ProfileConfig config)
    : config_(config) {}

void VersioningScheduler::attach(SchedulerContext& ctx) {
  QueueScheduler::attach(ctx);
  profile_.emplace(ctx.registry(), config_);
  // Every mean movement — new measurement, hint prime, warm-start restore,
  // drift-relearn reset — re-prices the queued charges of that (type,
  // group, version) entry at once, so every later decision reads current
  // estimates.
  profile_->set_mean_listener(
      [this](PriceId price, std::optional<Duration> mean) {
        reprice(price, mean);
      });
  learning_executions_ = 0;
  pool_.clear();
  cells_.clear();
  drain_pass_ = 0;
}

const ProfileTable& VersioningScheduler::profile() const {
  VERSA_CHECK(profile_.has_value());
  return *profile_;
}

ProfileTable& VersioningScheduler::mutable_profile() {
  VERSA_CHECK(profile_.has_value());
  return *profile_;
}

Duration VersioningScheduler::placement_penalty(const Task&, WorkerId) const {
  return 0.0;
}

void VersioningScheduler::resolve_cell(Task& task) {
  task.profile_cell = profile_->resolve_cell(task.type, task.data_set_size);
  if (task.profile_cell >= cells_.size()) cells_.resize(task.profile_cell + 1);
}

bool VersioningScheduler::reliable_runnable(CellId cell,
                                            TaskTypeId type) const {
  const VersionRegistry& registry = ctx_->registry();
  const Machine& machine = ctx_->machine();
  bool any_runnable = false;
  for (VersionId v : registry.versions(type)) {
    const TaskVersion& version = registry.version(v);
    if (machine.count_workers(version.device) == 0) continue;
    any_runnable = true;
    if (profile_->count(cell, version) < config_.lambda) return false;
  }
  VERSA_CHECK_MSG(any_runnable, "no runnable version for task on this machine");
  return true;
}

PriceId VersioningScheduler::price_id(Task& task,
                                      const TaskVersion& version) {
  return profile_->price_id(cell_of(task), version);
}

Duration VersioningScheduler::estimate_for(const Task& task, CellId cell,
                                           const TaskVersion& version) const {
  // §IV-B with a fallback chain for the unknown-mean case: charging zero
  // would make a worker buried under unmeasured tasks look idle.
  if (const auto mean = profile_->mean(cell, version)) return *mean;
  if (task.scheduler_estimate > 0.0) return task.scheduler_estimate;
  return profile_
      ->nearest_group_mean(task.type, version.id,
                           profile_->cell_group_key(cell))
      .value_or(0.0);
}

Duration VersioningScheduler::estimated_busy(WorkerId worker) const {
  if (debug_cross_check_) {
    // O(queue) rescan reference: the queued charge must equal the sum of
    // the current means of the queued tasks (push-time charges where the
    // mean is unknown — exactly what scheduler_estimate froze). Exact only
    // while the queues are quiescent or runtime-lock serialized (the sim
    // backend and the tests that enable it); the snapshot and the account
    // read are two separate critical sections.
    core::Ticks reference = 0;
    for (TaskId id : queued_tasks(worker)) {
      const Task& task = ctx_->graph().task(id);
      const auto mean = profile_->mean(
          task.profile_cell, ctx_->registry().version(task.chosen_version));
      reference += core::to_ticks(mean.value_or(task.scheduler_estimate));
    }
    versa::LockGuard lock(account_mutex_);
    VERSA_CHECK_MSG(reference == account_.queued_ticks(worker),
                    "incremental busy account diverged from rescan reference");
    return account_.busy(worker);
  }
  return QueueScheduler::estimated_busy(worker);
}

WorkerId VersioningScheduler::least_busy_worker(
    const TaskVersion& version) const {
  // The finish-time index orders workers by (busy, queue length, id) —
  // the historical tie-break — so this reads its front.
  versa::LockGuard lock(account_mutex_);
  return account_.least_busy(version.device);
}

void VersioningScheduler::push_learning(Task& task, CellId cell,
                                        const TaskVersion& version,
                                        WorkerId worker) {
  ++learning_executions_;
  std::vector<std::uint32_t>& inflight = cells_[cell].learning_inflight;
  if (version.ordinal >= inflight.size()) inflight.resize(version.ordinal + 1);
  ++inflight[version.ordinal];
  PushInfo info;
  info.estimate = estimate_for(task, cell, version);
  info.learning = true;
  push_to_worker(task, version.id, worker, info);
}

void VersioningScheduler::end_learning_run(CellId cell,
                                           const TaskVersion& version) {
  std::vector<std::uint32_t>& inflight = cells_[cell].learning_inflight;
  if (version.ordinal < inflight.size() && inflight[version.ordinal] > 0) {
    --inflight[version.ordinal];
  }
}

bool VersioningScheduler::try_place(Task& task, CellId cell) {
  if (reliable_runnable(cell, task.type)) {
    assign_earliest_executor(task, cell);
    return true;
  }
  // Learning phase: round-robin over versions that still need runs, with
  // at most λ in-flight apiece so no version can swamp a worker before a
  // single measurement lands.
  const VersionRegistry& registry = ctx_->registry();
  const std::vector<VersionId>& versions = registry.versions(task.type);
  CellState& state = cells_[cell];
  for (std::size_t i = 0; i < versions.size(); ++i) {
    const VersionId v = versions[(state.rr_cursor + i) % versions.size()];
    const TaskVersion& version = registry.version(v);
    const std::uint32_t done =
        static_cast<std::uint32_t>(profile_->count(cell, version));
    const std::uint32_t inflight =
        version.ordinal < state.learning_inflight.size()
            ? state.learning_inflight[version.ordinal]
            : 0;
    if (done + inflight >= config_.lambda) continue;
    const WorkerId worker = least_busy_worker(version);
    if (worker == kInvalidWorker) continue;  // device has no workers
    state.rr_cursor = (state.rr_cursor + i + 1) % versions.size();
    push_learning(task, cell, version, worker);
    return true;
  }
  return false;  // every learning slot is taken; wait in the pool
}

void VersioningScheduler::task_ready(Task& task) {
  const CellId cell = cell_of(task);
  if (!try_place(task, cell)) {
    pool_.push_back({task.id, cell});
    ++cells_[cell].pooled;
  }
}

void VersioningScheduler::drain_pool() {
  // One in-order pass: placed tasks leave, the rest keep their order. A
  // cell whose try_place failed stays blocked for the rest of the pass
  // (exact, see the declaration), and the pass ends once every unscanned
  // task belongs to a blocked cell.
  const std::uint64_t pass = ++drain_pass_;
  const std::size_t end = pool_.size();
  std::size_t unblocked = end;  // pooled, not in a blocked cell
  std::size_t kept = 0;
  std::size_t next = 0;
  for (; next < end && unblocked > 0; ++next) {
    const PooledTask pooled = pool_[next];
    CellState& state = cells_[pooled.cell];
    if (state.blocked_pass != pass) {
      if (try_place(ctx_->graph().task(pooled.id), pooled.cell)) {
        --state.pooled;
        --unblocked;
        continue;
      }
      // This task and every later one of its cell stay.
      state.blocked_pass = pass;
      unblocked -= state.pooled;
    }
    pool_[kept++] = pooled;
  }
  pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(kept),
              pool_.begin() + static_cast<std::ptrdiff_t>(next));
}

void VersioningScheduler::assign_earliest_executor(Task& task, CellId cell) {
  // Earliest executor: minimize busy(worker) + mean(version) (+ extension
  // penalty) over every (version, compatible worker) pair. In the
  // fastest-executor ablation the busy term is dropped, so the fastest
  // version always wins regardless of queue depth.
  VersionId best_version = kInvalidVersion;
  WorkerId best_worker = kInvalidWorker;
  Duration best_finish = 0.0;
  Duration best_estimate = 0.0;
  Duration best_penalty = 0.0;
  std::uint32_t candidates = 0;

  // Placement penalties are computed before the account critical section:
  // the locality subclass reads the data directory (lock class data, rank
  // 13), which must not be acquired under the account lock (rank 20).
  // The vector is member scratch storage: placement arrives under the
  // runtime lock and never re-enters itself.
  const Machine& machine = ctx_->machine();
  const VersionRegistry& registry = ctx_->registry();
  const std::size_t worker_count = machine.worker_count();
  std::vector<Duration>& penalties = penalty_scratch_;
  penalties.resize(worker_count);
  for (WorkerId w = 0; w < worker_count; ++w) {
    penalties[w] = placement_penalty(task, w);
  }

  {
    // The whole candidate walk reads the finish-time index under the
    // account lock; the push below re-acquires it, after the decision.
    versa::LockGuard lock(account_mutex_);
    for (VersionId v : registry.versions(task.type)) {
      const TaskVersion& version = registry.version(v);
      const auto mean = profile_->mean(cell, version);
      if (!mean) continue;  // version's device has no workers (never ran)
      if (fastest_executor_only_) {
        // Ablation strawman: the queue-length epsilon only spreads exact
        // ties; perf is irrelevant, so keep the plain worker sweep.
        for (const WorkerDesc& w : machine.workers()) {
          if (w.kind != version.device) continue;
          const Duration busy =
              static_cast<Duration>(queue_length(w.id)) * 1e-12;
          const Duration penalty = penalties[w.id];
          const Duration finish = busy + *mean + penalty;
          ++candidates;
          if (best_worker == kInvalidWorker || finish < best_finish) {
            best_version = v;
            best_worker = w.id;
            best_finish = finish;
            best_estimate = *mean;
            best_penalty = penalty;
          }
        }
        continue;
      }
      // Finish-time index walk: workers of the version's kind arrive in
      // increasing busy order, so the first one whose lower bound
      // busy + mean cannot beat the best finish ends the version (the
      // placement penalty is never negative).
      for (const core::LoadAccount::IndexKey& key :
           account_.workers_by_busy(version.device)) {
        const Duration busy = core::to_seconds(std::get<0>(key));
        if (best_worker != kInvalidWorker && busy + *mean >= best_finish) {
          break;
        }
        const WorkerId w = std::get<2>(key);
        const Duration penalty = penalties[w];
        const Duration finish = busy + *mean + penalty;
        ++candidates;
        if (best_worker == kInvalidWorker || finish < best_finish) {
          best_version = v;
          best_worker = w;
          best_finish = finish;
          best_estimate = *mean;
          best_penalty = penalty;
        }
      }
    }
  }
  VERSA_CHECK_MSG(best_worker != kInvalidWorker,
                  "no runnable version for task on this machine");
  PushInfo info;
  info.estimate = best_estimate;
  info.penalty = best_penalty;
  info.candidates = candidates;
  push_to_worker(task, best_version, best_worker, info);
}

TaskId VersioningScheduler::pull_from_pool(WorkerId worker) {
  const DeviceKind kind = ctx_->machine().worker(worker).kind;
  const VersionRegistry& registry = ctx_->registry();
  // The first pooled task whose type has a version of this worker's kind;
  // only that task's version choice is computed.
  const TaskVersion* first_of_kind = nullptr;
  const auto it = std::find_if(
      pool_.begin(), pool_.end(), [&](const PooledTask& pooled) {
        const TaskTypeId type = profile_->cell_type(pooled.cell);
        for (VersionId v : registry.versions(type)) {
          const TaskVersion& version = registry.version(v);
          if (version.device == kind) {
            first_of_kind = &version;
            return true;
          }
        }
        return false;
      });
  if (it == pool_.end()) return kInvalidTask;
  Task& task = ctx_->graph().task(it->id);
  const CellId cell = it->cell;
  const TaskVersion* under_sampled = nullptr;
  const TaskVersion* fastest = nullptr;
  Duration fastest_mean = 0.0;
  for (VersionId v : registry.versions(task.type)) {
    const TaskVersion& version = registry.version(v);
    if (version.device != kind) continue;
    if (profile_->count(cell, version) < config_.lambda &&
        under_sampled == nullptr) {
      under_sampled = &version;
    }
    const auto mean = profile_->mean(cell, version);
    if (mean && (fastest == nullptr || *mean < fastest_mean)) {
      fastest = &version;
      fastest_mean = *mean;
    }
  }
  // Under-sampled first, then the fastest known. With neither (no mean
  // yet and nothing under-sampled, which only happens while some other
  // device is still learning) run the first version of our kind.
  const TaskVersion& choice = under_sampled != nullptr ? *under_sampled
                              : fastest != nullptr     ? *fastest
                                                       : *first_of_kind;
  --cells_[cell].pooled;
  pool_.erase(it);
  push_learning(task, cell, choice, worker);
  return QueueScheduler::pop_task(worker);
}

TaskId VersioningScheduler::pop_task(WorkerId worker) {
  // The base pop moves the task's charge into the worker's running slot;
  // nothing versioning-specific remains here beyond the pool fallback.
  TaskId id = QueueScheduler::pop_task(worker);
  if (id == kInvalidTask && !pool_.empty()) {
    id = pull_from_pool(worker);
  }
  return id;
}

void VersioningScheduler::task_completed(Task& task, WorkerId worker,
                                         Duration measured) {
  // The scheduler is always learning (§IV-B): record in both phases. The
  // record fires the mean listener, which re-prices the key at once.
  const CellId cell = cell_of(task);
  const TaskVersion& version = ctx_->registry().version(task.chosen_version);
  profile_->record(cell, version, measured);
  QueueScheduler::task_completed(task, worker, measured);
  end_learning_run(cell, version);
  drain_pool();
}

void VersioningScheduler::task_failed(Task& task, WorkerId worker) {
  // Release the per-worker accounting without recording the wasted time
  // as a measurement (the attempt tells us nothing about the version's
  // true cost, only that the device hiccupped).
  QueueScheduler::task_failed(task, worker);
  end_learning_run(cell_of(task),
                   ctx_->registry().version(task.chosen_version));
}

bool VersioningScheduler::has_pending() const {
  return QueueScheduler::has_pending() || !pool_.empty();
}

}  // namespace versa
