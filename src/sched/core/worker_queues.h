// Sharded per-worker task queues — the data structure behind the
// ThreadExecutor lock split.
//
// Each worker owns a Shard: a mutex of class kLockRankQueue, the priority
// deque it guards, and an atomic length mirror. Push, pop and steal touch
// exactly one shard, so workers popping their own queues never contend
// with each other, and victim selection for stealing reads only the
// atomic lengths (no locks at all). Producers insert straight into the
// shard under its mutex: an entry is poppable and stealable as soon as
// push() returns. On the sim backend the runtime lock covers every shard
// mutex (cover_with), so the shards cost no native lock there.
//
// A QueueEntry is just the task id and its priority (the insertion key):
// the pop fast path never takes the runtime lock, so it never reads the
// runtime-locked TaskGraph, and it needs nothing else. Everything about a
// steal that the graph holds — re-homing Task::assigned_worker and the
// trace's steal event — happens in Scheduler::task_started, under the
// runtime lock, when the thief starts the task.
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
  int priority = 0;
};

class WorkerQueues {
 public:
  /// Rebuild with `worker_count` empty shards (covered like the old ones
  /// when cover_with was called).
  void reset(std::size_t worker_count);

  /// Cover every shard mutex, present and rebuilt, with lock class
  /// `outer` (versa::Mutex::cover_with). Call before the queues are
  /// shared with another thread.
  void cover_with(const lock_order::LockClass& outer);
  bool covered(WorkerId worker) const;

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
  const lock_order::LockClass* cover_ = nullptr;
};

}  // namespace versa::core
