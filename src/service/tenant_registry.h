// Tenant registration and quota admission control.
//
// The registry owns the tenant table and the check-and-charge admission
// step: admit() verifies both quotas against a graph's task count and
// byte footprint, then charges them; on_graph_complete() returns the
// charge when the graph retires.
//
// Thread-safety: none of its own, by design — the registry is plain data.
// VersaService keeps it GUARDED_BY its single `service` mutex (lock class
// kLockRankService, rank 4), taken on client threads with nothing else
// held. Nothing inside the runtime's completion path touches the
// registry; per-task fair-share accounting lives in FairShareInterleaver,
// under the runtime lock.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "service/tenant.h"

namespace versa::service {

class TenantRegistry {
 public:
  TenantRegistry() = default;
  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Register a tenant and return its id (dense, starting at 1 — tenant 0
  /// is the implicit default owner of non-service graphs and is never
  /// handed out here). A quota with weight 0 registers the tenant in a
  /// rejected state: admit() turns every graph away as kMalformedSpec.
  TenantId register_tenant(std::string name, TenantQuota quota);

  std::size_t tenant_count() const;
  bool known(TenantId tenant) const;
  std::string tenant_name(TenantId tenant) const;

  /// Check-and-charge: admit a graph of `tasks` tasks and `bytes` region
  /// bytes for `tenant`. On success the quotas are charged and the
  /// returned Rejected converts to false; on failure nothing is charged
  /// and the reason/detail describe the violated quota (or, for a tenant
  /// registered with weight 0, name the weight).
  Rejected admit(TenantId tenant, std::uint64_t tasks, std::uint64_t bytes);

  /// A graph retired cleanly: return its charge and count its tasks.
  void on_graph_complete(TenantId tenant, std::uint64_t tasks,
                         std::uint64_t bytes);

  TenantStats stats(TenantId tenant) const;

 private:
  struct Entry {
    std::string name;
    TenantQuota quota;
    TenantStats stats;
  };

  /// nullptr for unknown ids (including tenant 0).
  Entry* find(TenantId tenant);
  const Entry* find(TenantId tenant) const;

  std::deque<Entry> entries_;
};

}  // namespace versa::service
