// Shadow-byte map over registered regions (DESIGN.md §12).
//
// For every byte a completed task touched (declared clauses plus any
// witnessed out-of-spec spans), the map remembers the last writer and the
// readers since that write, as disjoint intervals keyed by begin offset —
// the same representation the dependence analyzer uses, so split/fused
// byte-exact clauses shadow exactly. record() walks the touched range,
// splits intervals at the boundaries, and reports every prior accessor
// that conflicts (write-write or read-write) and is NOT ordered against
// the recording task by the caller's happens-before oracle. Because every
// task records at completion, an unordered conflicting pair is always
// found when its second member completes — detection does not depend on
// which schedule the run happened to take.
//
// Thread-safety: none of its own. The owning AccessSanitizer guards it
// with its one mutex.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/types.h"
#include "task/access.h"

namespace versa::sanitize {

/// One prior access conflicting with (and unordered against) the span
/// being recorded.
struct ShadowConflict {
  TaskId prior = kInvalidTask;
  AccessMode prior_mode = AccessMode::kIn;
  std::uint64_t begin = 0;  ///< region-absolute byte range
  std::uint64_t end = 0;
};

/// `ordered(a, b)` oracle the caller provides (the clock table).
using OrderedFn = std::function<bool(TaskId, TaskId)>;

class ShadowMap {
 public:
  /// Record task `id` touching [offset, offset+length) of `region` with
  /// `mode`; appends a ShadowConflict per unordered conflicting prior
  /// access. Recording the same task twice over a byte never conflicts
  /// with itself.
  void record(RegionId region, TaskId id, AccessMode mode,
              std::uint64_t offset, std::uint64_t length,
              const OrderedFn& ordered, std::vector<ShadowConflict>& out);

  /// Drop all shadow state of `region` (unregister_data).
  void clear_region(RegionId region);

  /// Total live intervals across regions (tests).
  std::size_t interval_count() const;

 private:
  /// One disjoint interval [begin, end): begin is the map key.
  struct Interval {
    std::uint64_t end = 0;
    TaskId writer = kInvalidTask;  ///< last writer (kInvalidTask: none yet)
    std::vector<TaskId> readers;   ///< readers since that write
  };
  using IntervalMap = std::map<std::uint64_t, Interval>;

  std::map<RegionId, IntervalMap> regions_;
};

}  // namespace versa::sanitize
