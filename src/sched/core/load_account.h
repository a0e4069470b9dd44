// Incremental per-worker load accounting — the heart of the scheduling
// core. The paper's earliest-executor rule (§IV-B) needs every worker's
// estimated busy time on every placement; recomputing it by rescanning the
// worker's queue against the current profile means is O(queue depth) per
// query and collapses at PBPI scale. The LoadAccount maintains the same
// quantity incrementally:
//
//   * on_push     — charge the task's estimate to the worker's queued sum
//   * on_pop      — move the charge to the worker's running slot
//   * on_settle   — release the running slot (completion or transient
//                   failure; the paper's rule never keeps stale charges)
//   * on_steal    — re-home a queued charge between same-kind workers
//   * reprice     — a profile mean moved (new measurement, drift-relearn
//                   reset, warm-start restore): patch the charges of every
//                   *queued* task priced by that price id, per worker, in
//                   O(workers), O(1) when none is queued — no queue
//                   rescan. Running charges stay frozen at their
//                   pop-time price, matching the historical accounting.
//
// A price id is a dense index the caller supplies: the versioning policy
// passes the profile table's id of the (type, size group, version) entry
// whose mean priced the charge; the base policies never reprice and pass
// one shared id, which is exact because a bucket without a price charges
// each task its push-time estimate.
//
// Charges are held in integer picosecond ticks so incremental addition and
// subtraction are exact (associative): after any op sequence the account is
// bit-identical to an O(queue) rescan reference, which the property test
// and the debug cross-check in VersioningScheduler rely on.
//
// Re-pricing patches aggregates instead of per-task entries: a queued
// task is always charged its bucket's current price when one is known
// (its push-time charge otherwise), so a mean move costs one aggregate
// patch per worker holding the price instead of one write per queued task.
//
// The account also maintains, per device kind, a finish-time index: a flat
// vector of (busy, queued count, worker id) entries, so a least-busy
// lookup reads the front and an earliest-executor walk iterates in busy
// order instead of sweeping every worker and rescanning its queue. The
// index is sorted when it is read, not when it changes: a mutation only
// marks its worker's kind dirty, and the next read refreshes each entry
// from the per-worker sums and sorts the vector in place. A task changes
// the account about a dozen times (push, pop, settle, re-prices) but
// reads it about once per placement, and every read still sees the same
// (busy, queued count, id) order, so the walk and its pruning are
// unchanged.
//
// Every hot operation is allocation-free once the account has seen its
// price ids and its peak queue depth: the index is sized in reset(), the
// buckets are a vector indexed by price id, each holding a dense
// per-worker share vector sized when the bucket is first used, and the
// per-task entries (push-time charge, price id and worker, which back the
// "pushed twice", "untracked pop" and "wrong worker" checks) live in an
// open-addressed table with no node per task. The table only grows,
// doubling when half full, so its size follows the peak number of queued
// tasks, never the run's history.
//
// Thread-safety: none of its own, by design — the LoadAccount is a plain
// data structure. Since the ThreadExecutor lock split it is shared between
// lock-free poppers/stealers and runtime-locked placement, so every
// instance lives behind a dedicated mutex: QueueScheduler declares its
// account_ GUARDED_BY(account_mutex_) (lock class kLockRankAccount) and
// the thread-safety analysis rejects unlocked access paths (DESIGN.md §9).
// reprice runs under that mutex the moment a profile mean moves.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "common/types.h"
#include "machine/machine.h"

namespace versa::core {

/// Integer charge unit: one picosecond. Small enough that quantizing a
/// profile mean is far below measurement noise, large enough that a
/// multi-hour busy backlog fits an int64 with ten orders of magnitude to
/// spare.
using Ticks = std::int64_t;

constexpr double kSecondsPerTick = 1e-12;

Ticks to_ticks(Duration seconds);
inline Duration to_seconds(Ticks ticks) {
  return static_cast<Duration>(ticks) * kSecondsPerTick;
}

/// The price id every charge of a policy that never reprices shares.
constexpr PriceId kSharedPrice = 0;

class LoadAccount {
 public:
  /// Index entry ordering: (busy ticks, queued count, worker id). The
  /// queued-count tie-break reproduces the historical least-busy rule
  /// (equal busy -> shorter queue -> lower id).
  using IndexKey = std::tuple<Ticks, std::uint32_t, WorkerId>;
  using KindIndex = std::vector<IndexKey>;  ///< sorted ascending when read

  /// Rebuild for `machine`: every worker idle, index populated.
  void reset(const Machine& machine);

  /// Charge `estimate` of queued work for `task` on `worker`. When the
  /// price of `price` is known (a reprice established it) the bucket price
  /// wins over `estimate`, so concurrent pushes and reprices cannot
  /// diverge. Returns the charge actually applied.
  Duration on_push(TaskId task, PriceId price, WorkerId worker,
                   Duration estimate);

  /// The task left the queue to run: move its effective charge into the
  /// worker's running slot. The slot holds one value and is overwritten
  /// (matching the historical single running estimate, which nested
  /// taskwait inline execution also overwrote). Returns the charge.
  Duration on_pop(TaskId task, WorkerId worker);

  /// Completion or transient failure on `worker`: clear the running slot.
  void on_settle(WorkerId worker);

  /// Work stealing re-homed a queued task from `victim` to `thief`.
  void on_steal(TaskId task, WorkerId victim, WorkerId thief);

  /// The profile mean behind `price` changed (nullopt = forgotten, e.g. a
  /// drift-relearn reset): re-price every queued charge of that price. A
  /// forgotten mean reverts each task to its push-time charge.
  void reprice(PriceId price, std::optional<Duration> mean);

  /// Estimated seconds of queued + running work.
  Duration busy(WorkerId worker) const;
  Ticks busy_ticks(WorkerId worker) const;
  Ticks queued_ticks(WorkerId worker) const;
  Ticks running_ticks(WorkerId worker) const;
  std::uint32_t queued_count(WorkerId worker) const;

  /// Workers of `kind` ordered by (busy, queued count, id); empty for
  /// kinds with no workers. Sorts the index first if a mutation touched
  /// the kind since the last read (in place, no allocation). The
  /// reference stays valid until the next mutation.
  const KindIndex& workers_by_busy(DeviceKind kind) const;

  /// Least-busy worker of `kind`, or kInvalidWorker.
  WorkerId least_busy(DeviceKind kind) const;

  std::size_t tracked_tasks() const { return entries_.size(); }

 private:
  struct WorkerShare {
    std::uint32_t count = 0;  ///< queued tasks of this price on the worker
    Ticks charged = 0;        ///< their current (possibly repriced) charge
    Ticks frozen = 0;         ///< sum of their push-time charges
  };
  struct Bucket {
    std::optional<Ticks> price;  ///< current mean price, when known
    std::uint32_t queued = 0;    ///< queued tasks of this price, all workers
    /// Indexed by worker, sized at the bucket's first use; a worker
    /// holding none of the price's queued tasks has an empty ({}) share.
    std::vector<WorkerShare> shares;
  };
  struct TaskEntry {
    PriceId price = kSharedPrice;
    WorkerId worker = kInvalidWorker;
    Ticks charge = 0;  ///< push-time charge, never rewritten
  };

  /// TaskId -> TaskEntry, open-addressed with linear probing and
  /// backward-shift erase (no tombstones): a flat slot array, no node per
  /// task, doubled when half full.
  class EntryTable {
   public:
    /// Insert; false (and no change) if `task` is already present.
    bool insert(TaskId task, const TaskEntry& entry);
    /// The entry of `task`, or nullptr.
    TaskEntry* find(TaskId task);
    /// Move `task`'s entry into `out` and remove it; false if absent.
    bool take(TaskId task, TaskEntry& out);
    std::size_t size() const { return size_; }
    void clear();

   private:
    struct Slot {
      TaskId task = kInvalidTask;  ///< kInvalidTask marks an empty slot
      TaskEntry entry;
    };
    std::size_t home(TaskId task) const;
    /// Slot index holding `task`, or the empty slot ending its probe run.
    std::size_t probe(TaskId task) const;
    void grow();
    std::vector<Slot> slots_;  ///< power-of-two size, or empty
    std::size_t size_ = 0;
  };

  std::vector<Ticks> queued_;
  std::vector<Ticks> running_;
  std::vector<std::uint32_t> counts_;
  std::vector<DeviceKind> kinds_;
  /// One per DeviceKind. Sorting on read changes neither the entries'
  /// set nor any observable value, hence mutable.
  mutable std::array<KindIndex, 2> index_;
  /// A kind's index is stale: some worker of it changed since the sort.
  mutable std::array<bool, 2> dirty_{};
  std::vector<Bucket> buckets_;  ///< indexed by price id
  EntryTable entries_;

  /// The price's bucket, created with one empty share per worker.
  Bucket& bucket_of(PriceId price) {
    if (price >= buckets_.size()) buckets_.resize(price + 1);
    Bucket& bucket = buckets_[price];
    if (bucket.shares.empty()) bucket.shares.resize(queued_.size());
    return bucket;
  }
  Ticks effective(const TaskEntry& entry, const Bucket& bucket) const;
  IndexKey index_key(WorkerId worker) const;
  /// `worker`'s busy time or queued count changed: mark its kind's index
  /// for a sort at the next read.
  void touch(WorkerId worker) {
    dirty_[static_cast<std::size_t>(kinds_[worker])] = true;
  }
};

}  // namespace versa::core
