#include "sched/affinity_scheduler.h"

#include "common/check.h"

namespace versa {

AffinityScheduler::AffinityScheduler() { set_stealing(true); }

void AffinityScheduler::task_ready(Task& task) {
  const TaskVersion& main = main_version_of(task);
  const std::vector<WorkerId> candidates = compatible_workers(main);
  VERSA_CHECK_MSG(!candidates.empty(), "no compatible worker for task");

  // Residency can move under the scan (thread-backend workers stage off
  // the runtime lock); each query is consistent on its own, and the
  // placement is a heuristic either way.
  WorkerId best = kInvalidWorker;
  std::uint64_t best_missing = 0;
  std::size_t best_queue = 0;
  for (WorkerId w : candidates) {
    const SpaceId space = ctx_->machine().worker(w).space;
    const std::uint64_t missing =
        ctx_->directory().bytes_missing(task.accesses, space);
    const std::size_t queue = queue_length(w);
    if (best == kInvalidWorker || missing < best_missing ||
        (missing == best_missing && queue < best_queue)) {
      best = w;
      best_missing = missing;
      best_queue = queue;
    }
  }
  PushInfo info;
  info.candidates = static_cast<std::uint32_t>(candidates.size());
  push_to_worker(task, main.id, best, info);
}

}  // namespace versa
