// Multi-version task registry — the runtime side of the `implements` clause.
//
// Each task *type* (the "main implementation" in OmpSs source) owns a set of
// versions. A version targets one device kind and carries the callable body
// plus, for simulation, a cost model. The paper's rules are enforced here:
// versions always attach to the set of a main implementation (never to
// another version), and all versions of a set share the same signature —
// in our API, the same access list shape, supplied per task instance.
#pragma once

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "machine/cost_model.h"
#include "task/task.h"

namespace versa {

struct TaskVersion {
  VersionId id = kInvalidVersion;
  TaskTypeId type = kInvalidTaskType;
  /// Position in versions(type): registration order, main version first.
  std::uint32_t ordinal = 0;
  DeviceKind device = DeviceKind::kSmp;
  std::string name;
  TaskFn fn;           ///< may be empty for synthetic/simulated tasks
  CostModelPtr cost;   ///< required by the sim backend
  bool is_main = false;
};

class VersionRegistry {
 public:
  /// Declare a task type (the main implementation's identity).
  TaskTypeId declare_task(std::string name);

  /// Attach a version to a task type. The first version added becomes the
  /// main implementation.
  VersionId add_version(TaskTypeId type, DeviceKind device, std::string name,
                        TaskFn fn, CostModelPtr cost);

  const TaskVersion& version(VersionId id) const {
    VERSA_CHECK(id < versions_.size());
    return versions_[id];
  }
  const std::string& task_name(TaskTypeId type) const;
  TaskTypeId find_task(const std::string& name) const;  ///< kInvalidTaskType if absent

  /// Version of `type` named `name`; kInvalidVersion if absent. The lookup
  /// the profile store's importers (native store, text hints) resolve through.
  VersionId find_version(TaskTypeId type, std::string_view name) const;

  /// All versions of a type, in registration order (main first).
  const std::vector<VersionId>& versions(TaskTypeId type) const {
    VERSA_CHECK(type < types_.size());
    VERSA_CHECK_MSG(!types_[type].versions.empty(),
                    "task type has no registered versions");
    return types_[type].versions;
  }

  /// Versions of a type runnable on `device`.
  std::vector<VersionId> versions_for_device(TaskTypeId type,
                                             DeviceKind device) const;

  VersionId main_version(TaskTypeId type) const;

  /// True if some version of `type` can run on `device`.
  bool device_supported(TaskTypeId type, DeviceKind device) const;

  std::size_t task_type_count() const { return types_.size(); }
  std::size_t version_count() const { return versions_.size(); }

 private:
  struct TypeInfo {
    std::string name;
    std::vector<VersionId> versions;
  };

  std::vector<TypeInfo> types_;
  /// Deque: a thread-backend worker looks a version up under the runtime
  /// lock and runs it after releasing that lock, so registering another
  /// version meanwhile must not move existing ones.
  std::deque<TaskVersion> versions_;
};

}  // namespace versa
