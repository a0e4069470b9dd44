#include "sched/locality_versioning_scheduler.h"

namespace versa {

LocalityVersioningScheduler::LocalityVersioningScheduler(ProfileConfig config)
    : VersioningScheduler(config) {}

Duration LocalityVersioningScheduler::placement_penalty(
    const Task& task, WorkerId worker) const {
  // One consistent directory read: transfer_cost prices the missing bytes
  // over the host->space link, byte-identical to the historical
  // bytes_missing + link arithmetic.
  return ctx_->directory().transfer_cost(
      task.accesses, ctx_->machine().worker(worker).space);
}

}  // namespace versa
