// Per-run execution statistics: how many times each task version ran and
// for how long — the data behind the paper's "task statistics" figures
// (8, 11, 14, 15) — plus makespan and GFLOP/s helpers.
//
// Stats live in a vector indexed by VersionId: version ids are dense and
// each names exactly one task type, so a completion is one array write.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "task/version_registry.h"

namespace versa {

class RunStatsCollector {
 public:
  void on_complete(TaskTypeId type, VersionId version, Duration measured);

  std::uint64_t count(VersionId version) const;
  Duration total_time(VersionId version) const;

  /// Total executions of all versions of `type`.
  std::uint64_t type_count(TaskTypeId type) const;

  /// Share of `type`'s executions that used `version`, in [0, 100].
  double percent(TaskTypeId type, VersionId version) const;

  std::uint64_t total_tasks() const { return total_tasks_; }

  void reset();

 private:
  struct Value {
    TaskTypeId type = kInvalidTaskType;
    std::uint64_t count = 0;
    Duration total = 0.0;
  };
  std::vector<Value> stats_;  ///< indexed by VersionId
  std::uint64_t total_tasks_ = 0;
};

/// GFLOP/s given total floating-point operations and elapsed seconds.
double gflops(double flops, Duration elapsed);

}  // namespace versa
