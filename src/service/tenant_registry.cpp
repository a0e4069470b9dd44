#include "service/tenant_registry.h"

#include <cinttypes>
#include <cstdio>

#include "common/check.h"

namespace versa::service {

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kUnknownTenant:
      return "unknown-tenant";
    case RejectReason::kTaskQuota:
      return "task-quota";
    case RejectReason::kByteQuota:
      return "byte-quota";
    case RejectReason::kShutdown:
      return "shutdown";
    case RejectReason::kMalformedSpec:
      return "malformed-spec";
    case RejectReason::kUnknownGraph:
      return "unknown-graph";
  }
  return "?";
}

TenantId TenantRegistry::register_tenant(std::string name, TenantQuota quota) {
  Entry entry;
  entry.name = std::move(name);
  entry.quota = quota;
  entries_.push_back(std::move(entry));
  // Ids start at 1: tenant 0 is the implicit non-service default.
  return static_cast<TenantId>(entries_.size());
}

TenantRegistry::Entry* TenantRegistry::find(TenantId tenant) {
  if (tenant == kDefaultTenant || tenant > entries_.size()) return nullptr;
  return &entries_[tenant - 1];
}

const TenantRegistry::Entry* TenantRegistry::find(TenantId tenant) const {
  if (tenant == kDefaultTenant || tenant > entries_.size()) return nullptr;
  return &entries_[tenant - 1];
}

std::size_t TenantRegistry::tenant_count() const {
  return entries_.size();
}

bool TenantRegistry::known(TenantId tenant) const {
  return find(tenant) != nullptr;
}

std::string TenantRegistry::tenant_name(TenantId tenant) const {
  const Entry* entry = find(tenant);
  return entry == nullptr ? std::string() : entry->name;
}

Rejected TenantRegistry::admit(TenantId tenant, std::uint64_t tasks,
                               std::uint64_t bytes) {
  Entry* entry = find(tenant);
  Rejected rejected;
  if (entry == nullptr) {
    rejected.reason = RejectReason::kUnknownTenant;
    rejected.detail = "tenant id " + std::to_string(tenant) +
                      " was never registered with the service";
    return rejected;
  }
  if (entry->quota.weight == 0) {
    rejected.reason = RejectReason::kMalformedSpec;
    rejected.detail = "tenant '" + entry->name +
                      "' was opened with fair-share weight 0; a weight must "
                      "be at least 1";
    ++entry->stats.rejected_graphs;
    return rejected;
  }
  // Subtraction form: the additive check (`in_flight + tasks > quota`)
  // wraps for near-UINT64_MAX graph sizes and would admit instead of
  // reject.
  char detail[160];
  if (entry->stats.in_flight_tasks > entry->quota.max_in_flight_tasks ||
      tasks > entry->quota.max_in_flight_tasks -
                  entry->stats.in_flight_tasks) {
    rejected.reason = RejectReason::kTaskQuota;
    std::snprintf(detail, sizeof(detail),
                  "graph of %" PRIu64 " tasks would exceed quota: %" PRIu64
                  " in flight, limit %" PRIu64,
                  tasks, entry->stats.in_flight_tasks,
                  entry->quota.max_in_flight_tasks);
    rejected.detail = detail;
    ++entry->stats.rejected_graphs;
    return rejected;
  }
  if (entry->stats.in_flight_bytes > entry->quota.max_bytes ||
      bytes > entry->quota.max_bytes - entry->stats.in_flight_bytes) {
    rejected.reason = RejectReason::kByteQuota;
    std::snprintf(detail, sizeof(detail),
                  "graph of %" PRIu64 " bytes would exceed quota: %" PRIu64
                  " in flight, limit %" PRIu64,
                  bytes, entry->stats.in_flight_bytes,
                  entry->quota.max_bytes);
    rejected.detail = detail;
    ++entry->stats.rejected_graphs;
    return rejected;
  }
  entry->stats.in_flight_tasks += tasks;
  entry->stats.in_flight_bytes += bytes;
  ++entry->stats.admitted_graphs;
  return rejected;
}

void TenantRegistry::on_graph_complete(TenantId tenant, std::uint64_t tasks,
                                       std::uint64_t bytes) {
  Entry* entry = find(tenant);
  VERSA_CHECK_MSG(entry != nullptr, "completing a graph of an unknown tenant");
  VERSA_CHECK(entry->stats.in_flight_tasks >= tasks);
  VERSA_CHECK(entry->stats.in_flight_bytes >= bytes);
  entry->stats.in_flight_tasks -= tasks;
  entry->stats.in_flight_bytes -= bytes;
  ++entry->stats.completed_graphs;
  entry->stats.completed_tasks += tasks;
}

TenantStats TenantRegistry::stats(TenantId tenant) const {
  const Entry* entry = find(tenant);
  return entry == nullptr ? TenantStats{} : entry->stats;
}

}  // namespace versa::service
