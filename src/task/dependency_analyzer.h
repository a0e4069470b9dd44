// Region-based data-dependence analysis (the StarSs dependence support).
//
// For every registered region the analyzer maintains a set of disjoint byte
// intervals, each recording the last task that wrote it and the tasks that
// have read it since. Submitting a task yields its predecessor set:
//   read  after write            -> RAW dependence on the last writer
//   write after read             -> WAR dependence on the readers
//   write after write            -> WAW dependence on the last writer
// Intervals are split at access boundaries, so OmpSs array-section style
// dependences ("[BS*BS]C" on different tiles, overlapping slices, ...) are
// tracked precisely at byte granularity.
//
// Concurrency: all interval state sits behind one mutex (class `analyzer`,
// rank 16). The runtime already serializes submission under its own lock,
// so a finer split could never overlap anything end to end (DESIGN.md
// §13). Program order still matters per region chain: two tasks whose
// accesses overlap must have their add_task calls ordered by the caller.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"
#include "task/access.h"
#include "util/annotated_sync.h"

namespace versa {

class DependencyAnalyzer {
 public:
  /// Record `task`'s accesses (lengths must be resolved, i.e. non-zero)
  /// and append its distinct predecessor task ids to `preds`.
  /// Tasks on overlapping regions must be submitted in program order.
  void add_task(TaskId task, const AccessList& accesses,
                std::vector<TaskId>& preds);

  /// Forget all tracking for a region (region deregistration).
  void clear_region(RegionId region);

  void reset();

  /// Number of live intervals across all regions (test/diagnostic hook).
  std::size_t interval_count() const;

 private:
  struct Interval {
    std::uint64_t end = 0;  ///< exclusive; key of the map is the start
    TaskId last_writer = kInvalidTask;
    std::vector<TaskId> readers;  ///< readers since last_writer
  };

  /// Per-region interval map keyed by interval start. Invariant: intervals
  /// are disjoint and non-empty; bytes never accessed have no interval.
  using IntervalMap = std::map<std::uint64_t, Interval>;

  mutable versa::Mutex mutex_{lock_order::kLockRankAnalyzer};
  std::map<RegionId, IntervalMap> regions_ VERSA_GUARDED_BY(mutex_);

  /// Split the interval containing `pos` (if any) so that `pos` becomes a
  /// boundary. Leaves the map equivalent.
  static void split_at(IntervalMap& map, std::uint64_t pos);
};

}  // namespace versa
