// Sharded per-worker task queues — the data structure behind the
// ThreadExecutor lock split.
//
// Each worker owns a Shard: a mutex of class kLockRankQueue, the priority
// deque it guards, and an atomic length mirror. Push, pop and steal touch
// exactly one shard, so workers popping their own queues never contend
// with each other, and victim selection for stealing reads only the
// atomic lengths (no locks at all). Producers insert straight into the
// shard under its mutex: an entry is poppable and stealable as soon as
// push() returns.
//
// A QueueEntry carries everything pop/steal/tracing need about the task
// (id, type, chosen version, priority, frozen estimate, tenant),
// deliberately duplicated out of the TaskGraph: the graph is
// runtime-lock-serialized, and the whole point of the split is that the
// pop fast path does not take the runtime lock. Executors re-home
// Task::assigned_worker under the runtime lock when they start a
// (possibly stolen) task.
//
// Ordering per shard matches the historical single-lock queues exactly:
// priority insertion (stable within a priority level), FIFO pop from the
// front, steals from the back so the victim keeps its locality-friendly
// head-of-queue work.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "util/annotated_sync.h"

namespace versa::core {

struct QueueEntry {
  TaskId id = kInvalidTask;
  TaskTypeId type = kInvalidTaskType;
  VersionId version = kInvalidVersion;
  int priority = 0;
  /// The charge push_to_worker froze into Task::scheduler_estimate.
  Duration estimate = 0.0;
  /// Owning tenant (service mode) — carried so steal/complete trace events
  /// can attribute the task without touching the runtime-locked graph.
  TenantId tenant = kDefaultTenant;
};

class WorkerQueues {
 public:
  /// Rebuild with `worker_count` empty shards.
  void reset(std::size_t worker_count);

  /// Priority insertion into `worker`'s shard under its queue mutex: walk
  /// back past queued entries with strictly lower priority (stable within
  /// a level).
  void push(WorkerId worker, const QueueEntry& entry);

  /// FIFO pop of `worker`'s own queue.
  std::optional<QueueEntry> pop_front(WorkerId worker);

  /// Steal from the back of `victim`'s queue. May return nullopt even
  /// after length() reported work (the entry raced away) — callers treat
  /// that as an empty victim.
  std::optional<QueueEntry> steal_back(WorkerId victim);

  /// Lock-free queue length (victim selection, tie-breaking, tests).
  /// Exact under the runtime lock; a racy snapshot otherwise.
  std::size_t length(WorkerId worker) const;

  /// Snapshot of the task ids queued on `worker`, head first (busy-time
  /// rescan cross-checks and tests).
  std::vector<TaskId> snapshot(WorkerId worker) const;

  std::size_t worker_count() const { return shards_.size(); }

 private:
  struct Shard {
    Shard() : mutex(lock_order::kLockRankQueue) {}
    mutable versa::Mutex mutex;
    std::deque<QueueEntry> entries VERSA_GUARDED_BY(mutex);
    /// Mirrors entries.size(); updated while the shard mutex is held.
    std::atomic<std::size_t> length{0};
  };

  /// unique_ptr because a Shard (mutex + atomic) is immovable.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace versa::core
