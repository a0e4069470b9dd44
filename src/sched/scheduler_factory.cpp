#include "sched/scheduler_factory.h"

#include "sched/affinity_scheduler.h"
#include "sched/dep_aware_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "sched/locality_versioning_scheduler.h"
#include "sched/versioning_scheduler.h"

namespace versa {

std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          const ProfileConfig& profile_config) {
  if (name == "fifo") return std::make_unique<FifoScheduler>();
  if (name == "dep-aware") return std::make_unique<DepAwareScheduler>();
  if (name == "affinity") return std::make_unique<AffinityScheduler>();
  if (name == "versioning") {
    return std::make_unique<VersioningScheduler>(profile_config);
  }
  if (name == "versioning-locality") {
    return std::make_unique<LocalityVersioningScheduler>(profile_config);
  }
  if (name == "versioning-fastest") {
    auto scheduler = std::make_unique<VersioningScheduler>(profile_config);
    scheduler->set_fastest_executor_only(true);
    return scheduler;
  }
  return nullptr;
}

std::vector<std::string> scheduler_names() {
  return {"fifo", "dep-aware", "affinity", "versioning",
          "versioning-locality"};
}

std::vector<std::string> scheduler_factory_names() {
  return {"fifo",       "dep-aware",           "affinity",
          "versioning", "versioning-locality", "versioning-fastest"};
}

}  // namespace versa
