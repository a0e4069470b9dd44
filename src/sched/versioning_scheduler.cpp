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
  // version, group) key at once, so every later decision reads current
  // estimates.
  profile_->set_mean_listener(
      [this](TaskTypeId type, VersionId version, std::uint64_t group,
             std::optional<Duration> mean) {
        reprice(core::PriceKey{type, version, group}, mean);
      });
  learning_executions_ = 0;
  pool_.clear();
  learning_inflight_.clear();
  rr_cursor_.clear();
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

VersioningScheduler::GroupKey VersioningScheduler::group_of(
    const Task& task) const {
  return {task.type, profile_->group_key(task.data_set_size)};
}

bool VersioningScheduler::reliable_runnable(TaskTypeId type,
                                            std::uint64_t size) const {
  bool any_runnable = false;
  for (VersionId v : ctx_->registry().versions(type)) {
    const TaskVersion& version = ctx_->registry().version(v);
    if (ctx_->machine().count_workers(version.device) == 0) continue;
    any_runnable = true;
    if (profile_->count(type, v, size) < config_.lambda) return false;
  }
  VERSA_CHECK_MSG(any_runnable, "no runnable version for task on this machine");
  return true;
}

std::uint64_t VersioningScheduler::price_group(const Task& task) const {
  return profile_->group_key(task.data_set_size);
}

Duration VersioningScheduler::estimate_for(const Task& task,
                                           VersionId version) const {
  // §IV-B with a fallback chain for the unknown-mean case: charging zero
  // would make a worker buried under unmeasured tasks look idle.
  if (const auto mean =
          profile_->mean(task.type, version, task.data_set_size)) {
    return *mean;
  }
  if (task.scheduler_estimate > 0.0) return task.scheduler_estimate;
  return profile_
      ->nearest_group_mean(task.type, version,
                           profile_->group_key(task.data_set_size))
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
      const auto mean =
          profile_->mean(task.type, task.chosen_version, task.data_set_size);
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
  // the historical tie-break — so this is one O(log workers) lookup.
  versa::LockGuard lock(account_mutex_);
  return account_.least_busy(version.device);
}

void VersioningScheduler::push_learning(Task& task, VersionId version,
                                        WorkerId worker) {
  ++learning_executions_;
  ++learning_inflight_[{group_of(task), version}];
  PushInfo info;
  info.estimate = estimate_for(task, version);
  info.learning = true;
  push_to_worker(task, version, worker, info);
}

bool VersioningScheduler::try_place(Task& task) {
  if (reliable_runnable(task.type, task.data_set_size)) {
    assign_earliest_executor(task);
    return true;
  }
  // Learning phase: round-robin over versions that still need runs, with
  // at most λ in-flight apiece so no version can swamp a worker before a
  // single measurement lands.
  const std::vector<VersionId>& versions =
      ctx_->registry().versions(task.type);
  const GroupKey group = group_of(task);
  std::size_t& cursor = rr_cursor_[group];
  for (std::size_t i = 0; i < versions.size(); ++i) {
    const VersionId v = versions[(cursor + i) % versions.size()];
    const std::uint32_t done = static_cast<std::uint32_t>(
        profile_->count(task.type, v, task.data_set_size));
    const auto inflight_it = learning_inflight_.find({group, v});
    const std::uint32_t inflight =
        inflight_it == learning_inflight_.end() ? 0 : inflight_it->second;
    if (done + inflight >= config_.lambda) continue;
    const WorkerId worker = least_busy_worker(ctx_->registry().version(v));
    if (worker == kInvalidWorker) continue;  // device has no workers
    cursor = (cursor + i + 1) % versions.size();
    push_learning(task, v, worker);
    return true;
  }
  return false;  // every learning slot is taken; wait in the pool
}

void VersioningScheduler::task_ready(Task& task) {
  if (!try_place(task)) {
    pool_.push_back(task.id);
  }
}

void VersioningScheduler::drain_pool() {
  std::deque<TaskId> remaining;
  while (!pool_.empty()) {
    const TaskId id = pool_.front();
    pool_.pop_front();
    Task& task = ctx_->graph().task(id);
    if (!try_place(task)) {
      remaining.push_back(id);
    }
  }
  pool_ = std::move(remaining);
}

void VersioningScheduler::assign_earliest_executor(Task& task) {
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
  const std::size_t worker_count = ctx_->machine().worker_count();
  std::vector<Duration> penalties(worker_count, 0.0);
  for (WorkerId w = 0; w < worker_count; ++w) {
    penalties[w] = placement_penalty(task, w);
  }

  {
    // The whole candidate walk reads the finish-time index under the
    // account lock; the push below re-acquires it, after the decision.
    versa::LockGuard lock(account_mutex_);
    for (VersionId v : ctx_->registry().versions(task.type)) {
      const TaskVersion& version = ctx_->registry().version(v);
      const auto mean = profile_->mean(task.type, v, task.data_set_size);
      if (!mean) continue;  // version's device has no workers (never ran)
      if (fastest_executor_only_) {
        // Ablation strawman: the queue-length epsilon only spreads exact
        // ties; perf is irrelevant, so keep the plain worker sweep.
        for (const WorkerDesc& w : ctx_->machine().workers()) {
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
  for (auto it = pool_.begin(); it != pool_.end(); ++it) {
    Task& task = ctx_->graph().task(*it);
    // Candidate versions of this task runnable on the idle worker.
    VersionId under_sampled = kInvalidVersion;
    VersionId fastest = kInvalidVersion;
    Duration fastest_mean = 0.0;
    for (VersionId v : ctx_->registry().versions(task.type)) {
      if (ctx_->registry().version(v).device != kind) continue;
      if (profile_->count(task.type, v, task.data_set_size) < config_.lambda &&
          under_sampled == kInvalidVersion) {
        under_sampled = v;
      }
      const auto mean = profile_->mean(task.type, v, task.data_set_size);
      if (mean && (fastest == kInvalidVersion || *mean < fastest_mean)) {
        fastest = v;
        fastest_mean = *mean;
      }
    }
    VersionId choice = under_sampled != kInvalidVersion ? under_sampled
                                                        : fastest;
    if (choice == kInvalidVersion) {
      // No mean yet and nothing under-sampled can only happen when some
      // other device is still learning; run any version of our kind.
      for (VersionId v : ctx_->registry().versions(task.type)) {
        if (ctx_->registry().version(v).device == kind) {
          choice = v;
          break;
        }
      }
    }
    if (choice == kInvalidVersion) continue;  // task not for this device
    pool_.erase(it);
    push_learning(task, choice, worker);
    return QueueScheduler::pop_task(worker);
  }
  return kInvalidTask;
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
  profile_->record(task.type, task.chosen_version, task.data_set_size,
                   measured);
  QueueScheduler::task_completed(task, worker, measured);
  auto it = learning_inflight_.find({group_of(task), task.chosen_version});
  if (it != learning_inflight_.end() && it->second > 0) {
    --it->second;
  }
  drain_pool();
}

void VersioningScheduler::task_failed(Task& task, WorkerId worker) {
  // Release the per-worker accounting without recording the wasted time
  // as a measurement (the attempt tells us nothing about the version's
  // true cost, only that the device hiccupped).
  QueueScheduler::task_failed(task, worker);
  auto it = learning_inflight_.find({group_of(task), task.chosen_version});
  if (it != learning_inflight_.end() && it->second > 0) {
    --it->second;
  }
}

bool VersioningScheduler::has_pending() const {
  return QueueScheduler::has_pending() || !pool_.empty();
}

}  // namespace versa
