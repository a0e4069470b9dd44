// VersaService — the multi-tenant front end over one shared Runtime
// (DESIGN.md §10).
//
// The service turns the single-program runtime into a server: N client
// threads (one per tenant connection, typically) submit *graph specs* —
// self-contained descriptions of regions and tasks — and wait on the
// returned GraphId. Internally each admitted spec becomes an independent
// graph root (Runtime::open_graph), its regions are registered under a
// tenant/graph-namespaced name, and its tasks flow through the ordinary
// submission path tagged with the graph and tenant. Admission control
// (TenantRegistry quotas) runs before anything touches the runtime, and
// the weighted FairShareInterleaver keeps one tenant's storm from
// starving the others' dispatch.
//
// Thread-safety: every public method may be called from any client thread.
// One mutex of lock class `service` (rank 4) guards the tenant registry,
// the graph table and the shutdown flag. It is held only for short table
// updates and never across a Runtime call, so the runtime lock (10) is
// always taken with nothing held.
//
// Graph lifecycle: submit_graph() → wait_graph() → retired (regions
// unregistered, quotas credited). wait_graph is idempotent; every admitted
// graph must be waited on before the service is destroyed.
//
// Warm start: the learned profile persists through the runtime's own
// ProfileStore path — set `runtime.profile_load_path` to seed the profile
// table at the first submit and `runtime.profile_save_path` to write it
// when the service (and with it the runtime) is destroyed.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/runtime.h"
#include "sched/core/fair_share.h"
#include "service/tenant.h"
#include "service/tenant_registry.h"
#include "task/access.h"
#include "util/annotated_sync.h"

namespace versa::service {

/// One virtual region of a graph spec. Regions are private to the graph
/// (registered at admission, unregistered at retire) and virtual — no
/// host storage; the service workload model is dependence- and
/// transfer-shaped, like the sim-backend figures.
struct RegionSpec {
  std::string name;
  std::uint64_t bytes = 0;
};

/// One access clause of a task spec: an index into GraphSpec::regions.
struct AccessSpec {
  std::size_t region = 0;
  AccessMode mode = AccessMode::kIn;
};

/// One task of a graph spec. `type` must be declared on the service's
/// runtime, with a version whose device has a worker, before submission
/// (else the spec is rejected as malformed). Dependences derive
/// from the access clauses, exactly as in the single-graph API.
struct TaskSpec {
  TaskTypeId type = kInvalidTaskType;
  std::vector<AccessSpec> accesses;
  int priority = 0;
  std::string label;
};

struct GraphSpec {
  std::vector<RegionSpec> regions;
  std::vector<TaskSpec> tasks;

  std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    for (const RegionSpec& r : regions) sum += r.bytes;
    return sum;
  }
};

/// Outcome of submit_graph: either an admitted graph id or a typed
/// rejection (never both, never an abort).
struct SubmitResult {
  GraphId graph = kInvalidGraph;
  Rejected rejected;

  bool admitted() const { return !rejected; }
};

struct VersaServiceConfig {
  /// Runtime configuration for the shared runtime (backend, scheduler...).
  RuntimeConfig runtime;
  /// Fair-share dispatch window; 0 = 4 × worker count.
  std::size_t fair_share_window = 0;
};

class VersaService;

/// A tenant's handle on the service: submissions and waits made through a
/// session are attributed (and quota-checked) against its tenant. Copyable
/// value — all state lives in the service.
class Session {
 public:
  SubmitResult submit(const GraphSpec& spec);
  Rejected wait(GraphId graph);
  TenantStats stats() const;
  TenantId tenant() const { return tenant_; }

 private:
  friend class VersaService;
  Session(VersaService* svc, TenantId tenant) : service_(svc), tenant_(tenant) {}

  VersaService* service_;
  TenantId tenant_;
};

class VersaService {
 public:
  /// The machine is borrowed and must outlive the service.
  explicit VersaService(const Machine& machine, VersaServiceConfig config = {});
  ~VersaService();

  VersaService(const VersaService&) = delete;
  VersaService& operator=(const VersaService&) = delete;

  /// The shared runtime — declare task types and versions here before
  /// opening sessions (the usual declare_task/add_version surface).
  Runtime& runtime() { return runtime_; }

  /// Register a tenant and hand back its session.
  Session open_session(std::string name, TenantQuota quota);

  /// Admission-checked graph submission (see the class comment).
  SubmitResult submit_graph(TenantId tenant, const GraphSpec& spec);

  /// Block until `graph` finished, then retire it: unregister its regions
  /// and credit its tenant's quotas. Idempotent per graph. A graph id the
  /// service never issued is rejected with kUnknownGraph.
  Rejected wait_graph(GraphId graph);

  /// Stop admitting: subsequent submissions are rejected with kShutdown
  /// (in-flight graphs keep running — wait_graph them as usual).
  void shutdown();

  TenantStats stats(TenantId tenant) const;

 private:
  struct GraphRecord {
    TenantId tenant = kInvalidTenant;
    std::uint64_t tasks = 0;
    std::uint64_t bytes = 0;
    std::vector<RegionId> regions;
    bool retired = false;
  };

  /// kMalformedSpec for a zero-byte region, an out-of-range region index,
  /// or a task type that is undeclared or has no version runnable on this
  /// machine; no rejection otherwise.
  Rejected check_spec(const GraphSpec& spec);

  Runtime runtime_;
  core::FairShareInterleaver gate_;

  mutable versa::Mutex mutex_{lock_order::kLockRankService};
  TenantRegistry registry_ VERSA_GUARDED_BY(mutex_);
  std::unordered_map<GraphId, GraphRecord> graphs_ VERSA_GUARDED_BY(mutex_);
  bool shutdown_ VERSA_GUARDED_BY(mutex_) = false;
};

}  // namespace versa::service
