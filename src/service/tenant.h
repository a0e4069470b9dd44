// Service-mode tenant model (DESIGN.md §10).
//
// A tenant is one client of the shared runtime: it owns graphs, carries a
// fair-share weight, and is bounded by admission quotas. Quotas are
// enforced at submit time, before any task or region reaches the runtime —
// an over-quota submission is *rejected* with a typed reason (never an
// abort), so a storm from one tenant degrades into rejections for that
// tenant instead of failures for everyone.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"

namespace versa::service {

/// Per-tenant admission limits. The defaults are effectively unlimited;
/// a registry entry tightens them per tenant.
struct TenantQuota {
  /// Maximum tasks admitted but not yet retired with their graph.
  std::uint64_t max_in_flight_tasks = UINT64_MAX;
  /// Maximum bytes of regions registered in the DataDirectory on behalf
  /// of this tenant's live graphs.
  std::uint64_t max_bytes = UINT64_MAX;
  /// Fair-share weight (>= 1): relative completed-task share this tenant
  /// receives while backlogged against other tenants. A session opened
  /// with weight 0 has every submission rejected as kMalformedSpec.
  std::uint32_t weight = 1;
};

enum class RejectReason : std::uint8_t {
  kNone,           ///< not rejected
  kUnknownTenant,  ///< tenant id was never registered
  kTaskQuota,      ///< graph would exceed max_in_flight_tasks
  kByteQuota,      ///< graph would exceed max_bytes
  kShutdown,       ///< service no longer accepts submissions
  kMalformedSpec,  ///< bad region size or index, or an unrunnable task type
  kUnknownGraph,   ///< a wait names a graph the service never issued
};

const char* to_string(RejectReason reason);

/// Typed graceful-rejection result. `reason == kNone` means admitted.
struct Rejected {
  RejectReason reason = RejectReason::kNone;
  std::string detail;

  explicit operator bool() const { return reason != RejectReason::kNone; }
};

/// Snapshot of a tenant's accounting.
struct TenantStats {
  std::uint64_t in_flight_tasks = 0;
  std::uint64_t in_flight_bytes = 0;
  std::uint64_t admitted_graphs = 0;
  std::uint64_t rejected_graphs = 0;
  std::uint64_t completed_graphs = 0;
  std::uint64_t completed_tasks = 0;
};

}  // namespace versa::service
