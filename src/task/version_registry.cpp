#include "task/version_registry.h"

#include "common/check.h"

namespace versa {

TaskTypeId VersionRegistry::declare_task(std::string name) {
  VERSA_CHECK_MSG(!name.empty(), "task type needs a name");
  TypeInfo info;
  info.name = std::move(name);
  types_.push_back(std::move(info));
  return static_cast<TaskTypeId>(types_.size() - 1);
}

VersionId VersionRegistry::add_version(TaskTypeId type, DeviceKind device,
                                       std::string name, TaskFn fn,
                                       CostModelPtr cost) {
  VERSA_CHECK(type < types_.size());
  TaskVersion v;
  v.id = static_cast<VersionId>(versions_.size());
  v.type = type;
  v.ordinal = static_cast<std::uint32_t>(types_[type].versions.size());
  v.device = device;
  v.name = std::move(name);
  v.fn = std::move(fn);
  v.cost = std::move(cost);
  v.is_main = types_[type].versions.empty();
  versions_.push_back(std::move(v));
  types_[type].versions.push_back(versions_.back().id);
  return versions_.back().id;
}

const std::string& VersionRegistry::task_name(TaskTypeId type) const {
  VERSA_CHECK(type < types_.size());
  return types_[type].name;
}

TaskTypeId VersionRegistry::find_task(const std::string& name) const {
  for (std::size_t i = 0; i < types_.size(); ++i) {
    if (types_[i].name == name) return static_cast<TaskTypeId>(i);
  }
  return kInvalidTaskType;
}

VersionId VersionRegistry::find_version(TaskTypeId type,
                                        std::string_view name) const {
  for (VersionId id : versions(type)) {
    if (versions_[id].name == name) return id;
  }
  return kInvalidVersion;
}

std::vector<VersionId> VersionRegistry::versions_for_device(
    TaskTypeId type, DeviceKind device) const {
  std::vector<VersionId> out;
  for (VersionId id : versions(type)) {
    if (versions_[id].device == device) out.push_back(id);
  }
  return out;
}

VersionId VersionRegistry::main_version(TaskTypeId type) const {
  return versions(type).front();
}

bool VersionRegistry::device_supported(TaskTypeId type,
                                       DeviceKind device) const {
  for (VersionId id : versions(type)) {
    if (versions_[id].device == device) return true;
  }
  return false;
}

}  // namespace versa
