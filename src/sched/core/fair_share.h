// Weighted fair-share dispatch gate — the service-mode interleaver that
// sits between dependence release and the scheduler (DESIGN.md §10).
//
// Without it, a tenant that submits a 10k-task graph monopolizes the
// sharded WorkerQueues: every ready task is pushed the moment its
// dependencies clear, so a later tenant's graph queues behind the whole
// backlog. The gate bounds the number of *dispatched* (pushed but not yet
// finished) tasks to a window (default 4× workers) and parks the overflow
// in per-tenant FIFO queues. Each completion frees one window slot and
// refills it by weighted round-robin across the tenants with parked work:
// a tenant of weight w gets up to w consecutive releases before the cursor
// moves on, so the long-run completed-task share of backlogged tenants is
// proportional to their weights — while a lone tenant still gets the whole
// window (work-conserving).
//
// Locking: every call on a live gate happens under the runtime lock (offer
// from release_ready, on_complete from port_complete, set_weight from
// VersaService::open_session — all runtime-lock serialized), so the gate
// is plain data: no mutex of its own, no lock class, no atomics.
//
// The gate assumes non-nested graphs (a running task never blocks on a
// parked child); VersaService only installs it for service-built graphs,
// which have no nesting. Failure re-readies bypass the gate — a failed
// task keeps the slot it was dispatched with until it finally completes.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.h"

namespace versa::core {

class FairShareInterleaver {
 public:
  FairShareInterleaver() = default;
  FairShareInterleaver(const FairShareInterleaver&) = delete;
  FairShareInterleaver& operator=(const FairShareInterleaver&) = delete;

  /// Maximum dispatched-but-unfinished tasks before offers park (>= 1).
  void set_window(std::size_t slots);
  std::size_t window() const { return window_; }

  /// Relative share of `tenant` (>= 1; unregistered tenants default to 1).
  void set_weight(TenantId tenant, std::uint32_t weight);

  /// A task of `tenant` became ready. True: a window slot was charged and
  /// the caller dispatches it now. False: parked; it will be handed back
  /// by a later on_complete() once the round-robin reaches its tenant.
  bool offer(TenantId tenant, TaskId id);

  /// A dispatched task of `tenant` finished: free its slot and refill the
  /// window from parked queues by weighted round-robin, appending the
  /// released task ids to `release` (caller dispatches them).
  void on_complete(TenantId tenant, std::vector<TaskId>& release);

  /// Tasks currently parked across all tenants.
  std::size_t parked() const { return parked_total_; }
  /// Window slots currently charged.
  std::size_t in_flight() const { return in_window_; }

  // --- stats -------------------------------------------------------------
  std::uint64_t offered(TenantId tenant) const;
  std::uint64_t completed(TenantId tenant) const;

 private:
  struct TenantLane {
    std::uint32_t weight = 1;
    std::deque<TaskId> parked;
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
  };

  TenantLane& lane(TenantId tenant);
  /// Move the cursor to the next tenant with parked work; false if none.
  bool advance_cursor();

  std::size_t window_ = 64;
  std::size_t in_window_ = 0;
  std::size_t parked_total_ = 0;
  std::size_t cursor_ = 0;
  std::uint32_t credit_ = 0;
  std::deque<TenantLane> lanes_;
};

}  // namespace versa::core
