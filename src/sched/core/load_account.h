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
//                   *queued* task priced by that (type, version, group)
//                   key, per worker, in O(workers holding the key) — no
//                   queue rescan. Running charges stay frozen at their
//                   pop-time price, matching the historical accounting.
//
// Charges are held in integer picosecond ticks so incremental addition and
// subtraction are exact (associative): after any op sequence the account is
// bit-identical to an O(queue) rescan reference, which the property test
// and the debug cross-check in VersioningScheduler rely on.
//
// Re-pricing uses epochs instead of per-task writes: each price bucket
// carries an epoch that a reprice bumps; a task entry older than its
// bucket's epoch is implicitly priced at the bucket's current price, so a
// mean move costs one aggregate patch per worker holding the key instead
// of one write per queued task.
//
// The account also maintains, per device kind, an ordered finish-time
// index over (busy, queued count, worker id), so least-busy lookups and
// earliest-executor walks are O(log workers) instead of sweeping every
// worker and rescanning its queue.
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
#include <set>
#include <tuple>
#include <unordered_map>
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
Duration to_seconds(Ticks ticks);

/// Identity of a price: the (task type, version, size group) cell of the
/// profile table whose mean priced a charge.
struct PriceKey {
  TaskTypeId type = kInvalidTaskType;
  VersionId version = kInvalidVersion;
  std::uint64_t group = 0;

  bool operator==(const PriceKey& other) const {
    return type == other.type && version == other.version &&
           group == other.group;
  }
};

struct PriceKeyHash {
  std::size_t operator()(const PriceKey& key) const {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the three ids
    for (std::uint64_t part :
         {static_cast<std::uint64_t>(key.type),
          static_cast<std::uint64_t>(key.version), key.group}) {
      h = (h ^ part) * 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

class LoadAccount {
 public:
  /// Index entry ordering: (busy ticks, queued count, worker id). The
  /// queued-count tie-break reproduces the historical least-busy rule
  /// (equal busy -> shorter queue -> lower id).
  using IndexKey = std::tuple<Ticks, std::uint32_t, WorkerId>;
  using KindIndex = std::set<IndexKey>;

  /// Rebuild for `machine`: every worker idle, index populated.
  void reset(const Machine& machine);

  /// Charge `estimate` of queued work for `task` on `worker`. When the
  /// key's price is known (a reprice established it) the bucket price wins
  /// over `estimate`, so concurrent pushes and reprices cannot diverge.
  /// Returns the charge actually applied.
  Duration on_push(TaskId task, const PriceKey& key, WorkerId worker,
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

  /// The profile mean of `key` changed (nullopt = forgotten, e.g. a
  /// drift-relearn reset): re-price every queued charge of that key. A
  /// forgotten mean reverts each task to its push-time charge.
  void reprice(const PriceKey& key, std::optional<Duration> mean);

  /// Estimated seconds of queued + running work.
  Duration busy(WorkerId worker) const;
  Ticks busy_ticks(WorkerId worker) const;
  Ticks queued_ticks(WorkerId worker) const;
  Ticks running_ticks(WorkerId worker) const;
  std::uint32_t queued_count(WorkerId worker) const;

  /// Workers of `kind` ordered by (busy, queued count, id); empty set for
  /// kinds with no workers.
  const KindIndex& workers_by_busy(DeviceKind kind) const;

  /// Least-busy worker of `kind`, or kInvalidWorker.
  WorkerId least_busy(DeviceKind kind) const;

  std::size_t tracked_tasks() const { return entries_.size(); }

 private:
  struct WorkerShare {
    std::uint32_t count = 0;  ///< queued tasks of this key on the worker
    Ticks charged = 0;        ///< their current (possibly repriced) charge
    Ticks frozen = 0;         ///< sum of their push-time charges
  };
  struct Bucket {
    std::optional<Ticks> price;  ///< current mean price, when known
    std::uint64_t epoch = 0;     ///< bumped by every reprice
    std::unordered_map<WorkerId, WorkerShare> shares;
  };
  struct TaskEntry {
    PriceKey key;
    WorkerId worker = kInvalidWorker;
    Ticks charge = 0;  ///< push-time charge, never rewritten
    std::uint64_t epoch = 0;
  };

  std::vector<Ticks> queued_;
  std::vector<Ticks> running_;
  std::vector<std::uint32_t> counts_;
  std::vector<DeviceKind> kinds_;
  std::array<KindIndex, 2> index_;  ///< one per DeviceKind
  std::unordered_map<PriceKey, Bucket, PriceKeyHash> buckets_;
  std::unordered_map<TaskId, TaskEntry> entries_;

  Ticks effective(const TaskEntry& entry, const Bucket& bucket) const;
  KindIndex& index_of(WorkerId worker);
  IndexKey index_key(WorkerId worker) const;

  /// Apply a busy/count mutation to `worker`, keeping its index position
  /// current.
  template <typename Fn>
  void mutate(WorkerId worker, Fn&& fn);
};

}  // namespace versa::core
