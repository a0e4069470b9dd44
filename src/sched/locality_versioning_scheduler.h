// Locality-aware versioning scheduler — the paper's first future-work item
// (§VII): "provide the versioning scheduler with data locality information
// in order to further improve the performance of applications."
//
// Identical to VersioningScheduler except that the earliest-executor
// objective also charges an estimated transfer time for the bytes the
// candidate worker's memory space is missing, so placements that avoid
// copies win ties (and sometimes beat slightly faster-but-remote workers).
#pragma once

#include "sched/versioning_scheduler.h"

namespace versa {

class LocalityVersioningScheduler final : public VersioningScheduler {
 public:
  explicit LocalityVersioningScheduler(ProfileConfig config = {});

  const char* name() const override { return "versioning-locality"; }

 protected:
  Duration placement_penalty(const Task& task, WorkerId worker) const override;
};

}  // namespace versa
