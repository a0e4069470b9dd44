// Scheduler plugin factory. Mirrors the Nanos++ plugin mechanism the paper
// leans on: the policy is chosen by name at runtime (configuration or the
// VERSA_SCHEDULER environment variable) with no recompilation.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sched/profile_table.h"
#include "sched/scheduler.h"

namespace versa {

/// Create a scheduler by name: "fifo", "dep-aware", "affinity",
/// "versioning", "versioning-locality", "versioning-fastest". Returns
/// nullptr for unknown names.
/// `profile_config` parameterizes the versioning policies (λ, mean kind,
/// size grouping) and is ignored by the baselines.
std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          const ProfileConfig& profile_config = {});

/// Canonical policy names — one per distinct Scheduler::name(). Iterated
/// by the benches/examples that sweep "every policy".
std::vector<std::string> scheduler_names();

/// Every name make_scheduler accepts, including configuration variants
/// that report another policy's name() ("versioning-fastest"). This is
/// the list a CLI should print for an unknown --sched value.
std::vector<std::string> scheduler_factory_names();

}  // namespace versa
