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
  Task task;
  task.id = static_cast<TaskId>(tasks_.size());
  task.type = type;
  task.accesses = std::move(accesses);
  task.data_set_size = data_set_size;
  task.label = std::move(label);
  task.graph = graph;
  task.tenant = graphs_[graph].tenant;
  add_users(task.accesses);
  tasks_.push_back(std::move(task));
  ++unfinished_;
  ++graphs_[graph].unfinished;
  return tasks_.back();
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
    pred.successors.push_back(task.id);
    ++live;
    ++edges_;
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
  for (TaskId succ_id : task.successors) {
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
  VERSA_CHECK_MSG(task.successors.empty() && task.remaining_deps == 0,
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
  return region < region_users_.size() ? region_users_[region] : 0;
}

void TaskGraph::add_users(const AccessList& accesses) {
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    if (!first_access_to_region(accesses, i)) continue;
    const RegionId region = accesses[i].region;
    if (region >= region_users_.size()) region_users_.resize(region + 1, 0);
    ++region_users_[region];
  }
}

void TaskGraph::drop_users(const AccessList& accesses) {
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    if (!first_access_to_region(accesses, i)) continue;
    const RegionId region = accesses[i].region;
    VERSA_CHECK(region < region_users_.size() && region_users_[region] > 0);
    --region_users_[region];
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

void TaskGraph::reset() {
  tasks_.clear();
  graphs_.clear();
  graphs_.push_back(GraphInfo{});
  region_users_.clear();
  unfinished_ = 0;
  edges_ = 0;
}

}  // namespace versa
