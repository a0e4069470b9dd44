#include "service/versa_service.h"

#include <utility>

#include "common/check.h"
#include "common/log.h"

namespace versa::service {

SubmitResult Session::submit(const GraphSpec& spec) {
  return service_->submit_graph(tenant_, spec);
}

Rejected Session::wait(GraphId graph) { return service_->wait_graph(graph); }

TenantStats Session::stats() const { return service_->stats(tenant_); }

VersaService::VersaService(const Machine& machine, VersaServiceConfig config)
    : runtime_(machine, std::move(config.runtime)) {
  gate_.set_window(config.fair_share_window != 0
                       ? config.fair_share_window
                       : 4 * machine.worker_count());
  runtime_.set_fair_share(&gate_);
}

VersaService::~VersaService() {
  shutdown();
#ifndef NDEBUG
  versa::LockGuard lock(mutex_);
  for (const auto& [id, record] : graphs_) {
    VERSA_CHECK_MSG(record.retired,
                    "service destroyed with an un-waited graph");
  }
#endif
}

Session VersaService::open_session(std::string name, TenantQuota quota) {
  TenantId tenant;
  {
    versa::LockGuard lock(mutex_);
    tenant = registry_.register_tenant(std::move(name), quota);
  }
  // A weight-0 tenant is registered rejected (admission turns every graph
  // away) and never reaches the gate, which accepts only weights >= 1.
  if (quota.weight == 0) return Session(this, tenant);
  // The gate's lanes are runtime-lock serialized (fair_share.h), so the
  // weight write takes the runtime lock like every other gate mutation.
  versa::RecursiveLockGuard lock(runtime_.port_mutex());
  gate_.set_weight(tenant, quota.weight);
  return Session(this, tenant);
}

SubmitResult VersaService::submit_graph(TenantId tenant,
                                        const GraphSpec& spec) {
  SubmitResult result;
  // Reject a malformed spec before admission: no quota is charged and no
  // graph is opened.
  result.rejected = check_spec(spec);
  if (result.rejected) return result;
  const std::uint64_t task_count = spec.tasks.size();
  const std::uint64_t byte_count = spec.total_bytes();

  // 1. Admission: the shutdown check and the check-and-charge of both
  // quotas form one critical section.
  {
    versa::LockGuard lock(mutex_);
    if (shutdown_) {
      result.rejected.reason = RejectReason::kShutdown;
      result.rejected.detail = "service is shutting down";
      return result;
    }
    result.rejected = registry_.admit(tenant, task_count, byte_count);
    if (result.rejected) return result;
  }

  // 2. Open the graph root and register its private, namespaced regions
  // (each Runtime call takes and releases the runtime lock).
  const GraphId graph = runtime_.open_graph(tenant);
  GraphRecord record;
  record.tenant = tenant;
  record.tasks = task_count;
  record.bytes = byte_count;
  record.regions.reserve(spec.regions.size());
  const std::string prefix =
      "t" + std::to_string(tenant) + "/g" + std::to_string(graph) + "/";
  for (const RegionSpec& region : spec.regions) {
    record.regions.push_back(
        runtime_.register_data(prefix + region.name, region.bytes));
  }

  // 3. Submit the tasks, tagged with the graph (and through it the
  // tenant). Dependences derive from the access clauses as usual.
  for (const TaskSpec& task : spec.tasks) {
    AccessList accesses;
    accesses.reserve(task.accesses.size());
    for (const AccessSpec& access : task.accesses) {
      accesses.push_back(
          Access{record.regions[access.region], access.mode, 0, 0});
    }
    Runtime::SubmitOptions options;
    options.graph = graph;
    options.priority = task.priority;
    options.label = task.label;
    runtime_.submit(task.type, std::move(accesses), std::move(options));
  }

  // 4. Record the graph for retirement.
  {
    versa::LockGuard lock(mutex_);
    graphs_.emplace(graph, std::move(record));
  }
  result.graph = graph;
  return result;
}

Rejected VersaService::check_spec(const GraphSpec& spec) {
  auto malformed = [](std::string detail) {
    return Rejected{RejectReason::kMalformedSpec, std::move(detail)};
  };
  for (std::size_t i = 0; i < spec.regions.size(); ++i) {
    if (spec.regions[i].bytes == 0) {
      return malformed("region " + std::to_string(i) + " has zero bytes");
    }
  }
  // Every region starts valid in host memory, so a spec larger than the
  // host space could only run by evicting data it still needs.
  const std::uint64_t host = runtime_.machine().space(kHostSpace).capacity;
  const std::uint64_t bytes = spec.total_bytes();
  if (host != 0 && bytes > host) {
    return malformed("regions total " + std::to_string(bytes) +
                     " bytes, more than the host memory's " +
                     std::to_string(host));
  }
  for (const TaskSpec& task : spec.tasks) {
    for (const AccessSpec& access : task.accesses) {
      if (access.region >= spec.regions.size()) {
        return malformed("access names region " +
                         std::to_string(access.region) + ", but the spec has " +
                         std::to_string(spec.regions.size()) + " regions");
      }
    }
  }
  // Every task type must be declared with a version whose device has a
  // worker. The registry is read under the runtime lock with nothing else
  // held, as open_session does; a type repeated from the previous task
  // is not checked again.
  versa::RecursiveLockGuard lock(runtime_.port_mutex());
  const VersionRegistry& registry = runtime_.version_registry();
  for (std::size_t i = 0; i < spec.tasks.size(); ++i) {
    const TaskTypeId type = spec.tasks[i].type;
    if (i > 0 && type == spec.tasks[i - 1].type) continue;
    bool runnable = false;
    for (VersionId v = 0; v < registry.version_count() && !runnable; ++v) {
      const TaskVersion& version = registry.version(v);
      runnable = version.type == type &&
                 runtime_.machine().count_workers(version.device) > 0;
    }
    if (!runnable) {
      return malformed("task type " + std::to_string(type) +
                       " is undeclared or has no version runnable on this "
                       "machine");
    }
  }
  return Rejected{};
}

Rejected VersaService::wait_graph(GraphId graph) {
  Rejected rejected;
  {
    versa::LockGuard lock(mutex_);
    auto it = graphs_.find(graph);
    if (it == graphs_.end()) {
      rejected.reason = RejectReason::kUnknownGraph;
      rejected.detail = "graph id " + std::to_string(graph) +
                        " was never issued by this service";
      return rejected;
    }
    if (it->second.retired) return rejected;
  }
  runtime_.wait_graph(graph);
  // Retire exactly once: claim the record, unregister its regions with
  // nothing held, and only then credit the quotas, so the bytes leave the
  // directory before the quota frees them.
  GraphRecord record;
  {
    versa::LockGuard lock(mutex_);
    GraphRecord& live = graphs_.at(graph);
    if (live.retired) return rejected;
    record = std::move(live);
    live.retired = true;
    live.regions.clear();
  }
  for (RegionId region : record.regions) {
    runtime_.unregister_data(region);
  }
  versa::LockGuard lock(mutex_);
  registry_.on_graph_complete(record.tenant, record.tasks, record.bytes);
  return rejected;
}

void VersaService::shutdown() {
  versa::LockGuard lock(mutex_);
  shutdown_ = true;
}

TenantStats VersaService::stats(TenantId tenant) const {
  versa::LockGuard lock(mutex_);
  return registry_.stats(tenant);
}

}  // namespace versa::service
