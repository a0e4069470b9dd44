// Task graph bookkeeping: storage, dependence edges, readiness propagation.
//
// The graph owns every submitted Task for the lifetime of a run (ids are
// indices into a chunked TaskStore, so references stay valid as it
// grows), counts unsatisfied predecessors, and releases successors on
// completion. Successor lists are threaded through one edge pool per
// graph, appended at the tail, so a task's successors are released in
// edge-creation order without a per-task container. The graph also
// counts, per region, the unfinished tasks that name it, so retiring a
// region never scans the task history. Every per-task step is O(accesses
// + edges) and allocation-free once the pools have grown. Concurrency
// control lives one level up, in Runtime — the graph itself is
// single-threaded by contract.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "task/task.h"
#include "task/task_store.h"

namespace versa {

class TaskGraph {
 public:
  TaskGraph();

  /// Create a task in kCreated state. Accesses must have resolved lengths.
  /// The task joins `graph` (an id from open_graph(), or kDefaultGraph)
  /// and counts as a user of each distinct region it accesses until it
  /// finishes.
  Task& create_task(TaskTypeId type, AccessList accesses,
                    std::uint64_t data_set_size, std::string label,
                    GraphId graph = kDefaultGraph);

  /// Open an independent graph root owned by `tenant`. Graph 0 (the
  /// implicit default every single-graph program uses) always exists.
  GraphId open_graph(TenantId tenant);

  /// Per-graph completion: true when every task of `graph` has finished.
  bool graph_finished(GraphId graph) const;

  /// Add dependence edges from each predecessor to `task`. Predecessors
  /// already finished contribute no edge. Returns the number of live edges
  /// added; if zero, the caller should move the task to ready.
  std::uint32_t add_dependencies(Task& task, const std::vector<TaskId>& preds);

  /// Mark `task` finished and collect successors that became ready.
  void mark_finished(TaskId id, Time now, std::vector<TaskId>& newly_ready);

  /// Retire a placeholder task that never entered the scheduler: a split
  /// shell (its children ran instead) or a fused-away sibling (the fused
  /// host ran instead). The task must still be kCreated, unregistered
  /// (no dependence edges in either direction) — it goes straight to
  /// kFinished and the graph counters settle as if it had run.
  void finish_stub(TaskId id, Time now);

  /// Swap an unfinished task's access list (the fuse path folds sibling
  /// clauses into the host), moving its region-user counts along.
  void replace_accesses(Task& task, AccessList accesses);

  /// Unfinished tasks whose access list names `region` (each task once).
  /// Split shells count until their last child finishes; fused-away
  /// members stop counting when they retire into their host.
  std::uint32_t region_users(RegionId region) const;

  Task& task(TaskId id);
  const Task& task(TaskId id) const;

  /// Range over one task's successor ids, in edge-creation order.
  class SuccessorRange;
  SuccessorRange successors(TaskId id) const;

  std::size_t size() const { return tasks_.size(); }
  std::size_t unfinished() const { return unfinished_; }
  bool all_finished() const { return unfinished_ == 0; }

  /// Iterate all tasks in id order (reporting).
  const TaskStore& tasks() const { return tasks_; }

  /// Drop all tasks (between benchmark repetitions).
  void reset();

  /// Total dependence edges added (diagnostics).
  std::uint64_t edge_count() const { return edges_.size(); }

 private:
  /// One graph root's bookkeeping; index in graphs_ is the GraphId.
  struct GraphInfo {
    TenantId tenant = kDefaultTenant;
    std::size_t unfinished = 0;
  };

  /// One successor edge: the dependent task and the next edge of the
  /// same predecessor's list.
  struct Edge {
    TaskId successor;
    EdgeId next;
  };

  /// Count or uncount `accesses`' distinct regions in region_users_.
  void add_users(const AccessList& accesses);
  void drop_users(const AccessList& accesses);
  /// Per-region user count, and the stamp add_users/drop_users dedupe an
  /// access list with: a region counts once per call, when its stamp
  /// differs from the call's.
  struct RegionUse {
    std::uint64_t stamp = 0;
    std::uint32_t users = 0;
  };

  TaskStore tasks_;
  std::vector<GraphInfo> graphs_;
  /// Successor edges of every task, linked per predecessor.
  std::vector<Edge> edges_;
  /// Indexed by RegionId (directory ids are dense and never reused).
  std::vector<RegionUse> regions_;
  std::uint64_t stamp_ = 0;
  std::size_t unfinished_ = 0;
};

class TaskGraph::SuccessorRange {
 public:
  class iterator {
   public:
    TaskId operator*() const { return (*pool_)[edge_].successor; }
    iterator& operator++() {
      edge_ = (*pool_)[edge_].next;
      return *this;
    }
    bool operator==(const iterator& other) const {
      return edge_ == other.edge_;
    }

   private:
    friend class SuccessorRange;
    iterator(const std::vector<Edge>* pool, EdgeId edge)
        : pool_(pool), edge_(edge) {}
    const std::vector<Edge>* pool_;
    EdgeId edge_;
  };

  iterator begin() const { return iterator(pool_, first_); }
  iterator end() const { return iterator(pool_, kNoEdge); }
  bool empty() const { return first_ == kNoEdge; }

 private:
  friend class TaskGraph;
  SuccessorRange(const std::vector<Edge>* pool, EdgeId first)
      : pool_(pool), first_(first) {}
  const std::vector<Edge>* pool_;
  EdgeId first_;
};

}  // namespace versa
