#include "task/task_graph.h"

#include "common/check.h"

namespace versa {

TaskGraph::TaskGraph() {
  // Graph 0 is the always-present default root (tenant 0).
  graphs_.push_back(GraphInfo{});
}

Task& TaskGraph::create_task(TaskTypeId type, AccessList accesses,
                             std::uint64_t data_set_size, std::string label,
                             GraphId graph) {
  VERSA_CHECK(graph < graphs_.size());
  const TaskId id = static_cast<TaskId>(tasks_.size());
  Task& task = tasks_.emplace_back();
  task.id = id;
  task.type = type;
  task.accesses = std::move(accesses);
  task.data_set_size = data_set_size;
  task.label = std::move(label);
  task.graph = graph;
  task.tenant = graphs_[graph].tenant;
  add_users(task.accesses);
  ++unfinished_;
  ++graphs_[graph].unfinished;
  return task;
}

GraphId TaskGraph::open_graph(TenantId tenant) {
  GraphId id = static_cast<GraphId>(graphs_.size());
  GraphInfo info;
  info.tenant = tenant;
  graphs_.push_back(info);
  return id;
}

bool TaskGraph::graph_finished(GraphId graph) const {
  VERSA_CHECK(graph < graphs_.size());
  return graphs_[graph].unfinished == 0;
}

std::uint32_t TaskGraph::add_dependencies(Task& task,
                                          const std::vector<TaskId>& preds) {
  VERSA_CHECK(task.state == TaskState::kCreated);
  std::uint32_t live = 0;
  for (TaskId pred_id : preds) {
    VERSA_CHECK(pred_id < tasks_.size());
    VERSA_CHECK_MSG(pred_id != task.id, "task cannot depend on itself");
    Task& pred = tasks_[pred_id];
    if (pred.state == TaskState::kFinished) continue;
    // Append at the tail: successors are released in creation order.
    VERSA_CHECK_MSG(edges_.size() < kNoEdge, "successor edge pool is full");
    const EdgeId edge = static_cast<EdgeId>(edges_.size());
    edges_.push_back(Edge{task.id, kNoEdge});
    if (pred.last_successor == kNoEdge) {
      pred.first_successor = edge;
    } else {
      edges_[pred.last_successor].next = edge;
    }
    pred.last_successor = edge;
    ++live;
  }
  task.remaining_deps = live;
  return live;
}

void TaskGraph::mark_finished(TaskId id, Time now,
                              std::vector<TaskId>& newly_ready) {
  Task& task = this->task(id);
  VERSA_CHECK_MSG(task.state == TaskState::kRunning,
                  "finishing a task that was not running");
  task.state = TaskState::kFinished;
  task.finish_time = now;
  VERSA_CHECK(unfinished_ > 0);
  --unfinished_;
  VERSA_CHECK(graphs_[task.graph].unfinished > 0);
  --graphs_[task.graph].unfinished;
  drop_users(task.accesses);
  for (EdgeId e = task.first_successor; e != kNoEdge; e = edges_[e].next) {
    const TaskId succ_id = edges_[e].successor;
    Task& succ = tasks_[succ_id];
    VERSA_CHECK(succ.remaining_deps > 0);
    if (--succ.remaining_deps == 0) {
      newly_ready.push_back(succ_id);
    }
  }
}

void TaskGraph::finish_stub(TaskId id, Time now) {
  Task& task = this->task(id);
  VERSA_CHECK_MSG(task.state == TaskState::kCreated,
                  "finish_stub on a task the scheduler saw");
  VERSA_CHECK_MSG(
      task.first_successor == kNoEdge && task.remaining_deps == 0,
                  "finish_stub on a task with dependence edges");
  task.state = TaskState::kFinished;
  task.finish_time = now;
  VERSA_CHECK(unfinished_ > 0);
  --unfinished_;
  VERSA_CHECK(graphs_[task.graph].unfinished > 0);
  --graphs_[task.graph].unfinished;
  drop_users(task.accesses);
}

void TaskGraph::replace_accesses(Task& task, AccessList accesses) {
  VERSA_CHECK_MSG(task.state != TaskState::kFinished,
                  "replacing the accesses of a finished task");
  drop_users(task.accesses);
  add_users(accesses);
  task.accesses = std::move(accesses);
}

std::uint32_t TaskGraph::region_users(RegionId region) const {
  return region < regions_.size() ? regions_[region].users : 0;
}

void TaskGraph::add_users(const AccessList& accesses) {
  const std::uint64_t stamp = ++stamp_;
  for (const Access& access : accesses) {
    if (access.region >= regions_.size()) regions_.resize(access.region + 1);
    RegionUse& use = regions_[access.region];
    if (use.stamp == stamp) continue;  // region already counted
    use.stamp = stamp;
    ++use.users;
  }
}

void TaskGraph::drop_users(const AccessList& accesses) {
  const std::uint64_t stamp = ++stamp_;
  for (const Access& access : accesses) {
    VERSA_CHECK(access.region < regions_.size());
    RegionUse& use = regions_[access.region];
    if (use.stamp == stamp) continue;
    use.stamp = stamp;
    VERSA_CHECK(use.users > 0);
    --use.users;
  }
}

Task& TaskGraph::task(TaskId id) {
  VERSA_CHECK(id < tasks_.size());
  return tasks_[id];
}

const Task& TaskGraph::task(TaskId id) const {
  VERSA_CHECK(id < tasks_.size());
  return tasks_[id];
}

TaskGraph::SuccessorRange TaskGraph::successors(TaskId id) const {
  return SuccessorRange(&edges_, task(id).first_successor);
}

void TaskGraph::reset() {
  tasks_.reset();
  graphs_.clear();
  graphs_.push_back(GraphInfo{});
  edges_.clear();
  regions_.clear();
  stamp_ = 0;
  unfinished_ = 0;
}

}  // namespace versa
