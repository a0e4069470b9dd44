#include "runtime/runtime.h"

#include <algorithm>

#include "common/check.h"
#include "common/log.h"
#include "exec/sim_executor.h"
#include "exec/thread_executor.h"
#include "profile/machine_signature.h"
#include "sched/core/fair_share.h"
#include "sched/scheduler_factory.h"
#include "sched/versioning_scheduler.h"

namespace versa {

Runtime::Runtime(const Machine& machine, RuntimeConfig config)
    : machine_(machine),
      config_(apply_env_overrides(std::move(config))),
      directory_(machine_) {
  scheduler_ = make_scheduler(config_.scheduler, config_.profile);
  VERSA_CHECK_MSG(scheduler_ != nullptr, "unknown scheduler name");
  scheduler_->attach(*this);
  if (config_.sched_trace) {
    scheduler_->decision_trace().enable(config_.sched_trace_capacity);
  }
  if (config_.granularity.mode != core::GranularityMode::kOff) {
    granularity_ =
        std::make_unique<core::GranularityController>(config_.granularity);
    // Auto mode reads its group means from the versioning profile; other
    // schedulers leave the pointer null, which makes auto inert (fixed
    // split factors still apply).
    if (auto* versioning =
            dynamic_cast<VersioningScheduler*>(scheduler_.get())) {
      granularity_->set_profile(&versioning->profile());
    }
  }
  if (config_.sanitize.mode != sanitize::SanitizeMode::kOff) {
    sanitizer_ = std::make_unique<sanitize::AccessSanitizer>(config_.sanitize);
  }

  switch (config_.backend) {
    case Backend::kSim: {
      SimExecutorConfig sim_config;
      sim_config.noise = config_.noise;
      sim_config.seed = config_.seed;
      sim_config.prefetch = config_.prefetch;
      sim_config.default_task_duration = config_.default_task_duration;
      sim_config.failure_rate = config_.failure_rate;
      sim_config.max_attempts = config_.max_attempts;
      executor_ = std::make_unique<SimExecutor>(machine_, sim_config);
      break;
    }
    case Backend::kThreads: {
      ThreadExecutorConfig thread_config;
      thread_config.emulate_costs = config_.emulate_costs;
      thread_config.time_scale = config_.emulation_time_scale;
      executor_ = std::make_unique<ThreadExecutor>(machine_, thread_config);
      break;
    }
  }
  executor_->attach(*this);
  VERSA_LOG(kInfo) << "runtime up: " << machine_.summary() << ", scheduler="
                   << scheduler_->name();
}

Runtime::~Runtime() {
  // Join worker threads before anything else is torn down, then persist
  // the learned profile if requested.
  executor_.reset();
  maybe_save_profile();
}

TaskTypeId Runtime::declare_task(std::string name) {
  versa::RecursiveLockGuard lock(mutex_);
  return registry_.declare_task(std::move(name));
}

VersionId Runtime::add_version(TaskTypeId type, DeviceKind device,
                               std::string name, TaskFn fn,
                               CostModelPtr cost) {
  versa::RecursiveLockGuard lock(mutex_);
  return registry_.add_version(type, device, std::move(name), std::move(fn),
                               std::move(cost));
}

RegionId Runtime::register_data(std::string name, std::uint64_t size,
                                void* host_ptr) {
  versa::RecursiveLockGuard lock(mutex_);
  return directory_.register_region(std::move(name), size, host_ptr);
}

void Runtime::unregister_data(RegionId region) {
  versa::RecursiveLockGuard lock(mutex_);
  // Close any open fuse window first: its members are unregistered, and
  // the user count below must see their final (possibly fused) form.
  flush_fuse_window();
  // Guard against use-after-free at the task level: no live task may still
  // reference the region. The graph keeps the count exact at every create,
  // finish and fuse, so this check costs O(1) however long the run.
  VERSA_CHECK_MSG(graph_.region_users(region) == 0,
                  "unregistering a region with unfinished tasks");
  analyzer_.clear_region(region);
  if (sanitizer_ != nullptr) sanitizer_->on_region_unregistered(region);
  directory_.unregister_region(region);
}

ProfileStore Runtime::make_profile_store() const {
  return ProfileStore(
      registry_,
      compute_machine_signature(machine_, config_.profile_signature_token));
}

void Runtime::maybe_load_profile() {
  if (profile_loaded_) return;
  profile_loaded_ = true;
  if (config_.profile_load_path.empty()) return;
  auto* versioning = dynamic_cast<VersioningScheduler*>(scheduler_.get());
  if (versioning == nullptr) {
    VERSA_LOG(kWarn) << "profile file ignored: scheduler has no "
                        "profile table";
    return;
  }
  profile_load_ = make_profile_store().load(config_.profile_load_path,
                                            versioning->mutable_profile());
  if (profile_load_.status == ProfileLoadStatus::kOk) {
    VERSA_LOG(kInfo) << "profile " << config_.profile_load_path
                     << ": warm start, " << profile_load_.applied
                     << " entries applied, " << profile_load_.skipped
                     << " skipped (" << profile_load_.message << ")";
  }
}

void Runtime::maybe_save_profile() {
  if (config_.profile_save_path.empty()) return;
  auto* versioning = dynamic_cast<VersioningScheduler*>(scheduler_.get());
  if (versioning == nullptr) return;
  if (!make_profile_store().save(config_.profile_save_path,
                                 versioning->profile())) {
    VERSA_LOG(kWarn) << "could not save profile to "
                     << config_.profile_save_path;
  }
}

TaskId Runtime::submit(TaskTypeId type, AccessList accesses, std::string label,
                       int priority) {
  SubmitOptions options;
  options.priority = priority;
  options.label = std::move(label);
  return submit(type, std::move(accesses), std::move(options));
}

TaskId Runtime::submit(TaskTypeId type, AccessList accesses,
                       SubmitOptions options) {
  versa::RecursiveLockGuard lock(mutex_);
  maybe_load_profile();

  // Resolve open-ended lengths and compute the data-set size with every
  // region counted once (paper footnote 2).
  std::uint64_t data_set_size = 0;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    Access& access = accesses[i];
    const RegionDesc& desc = directory_.region(access.region);
    if (access.length == 0) {
      VERSA_CHECK_MSG(access.offset < desc.size, "access offset out of range");
      access.length = desc.size - access.offset;
    }
    VERSA_CHECK_MSG(access.offset + access.length <= desc.size,
                    "access range exceeds region");
    if (first_access_to_region(accesses, i)) data_set_size += desc.size;
  }

  // Adaptive granularity hook: may re-tile the submission into children
  // or park it in the fuse window. Absent (the default), the path below
  // is byte-identical to the pre-controller runtime.
  if (granularity_ != nullptr) {
    TaskId out = kInvalidTask;
    if (granular_submit(type, accesses, data_set_size, options, out)) {
      return out;
    }
  }

  Task& task = graph_.create_task(type, std::move(accesses), data_set_size,
                                  std::move(options.label), options.graph);
  task.priority = options.priority;
  task.submit_time = now();

  // Nested submission: attribute the child to the submitting task so a
  // taskwait inside that body can wait for exactly its children.
  const TaskId parent = executor_->current_task();
  if (parent != kInvalidTask) {
    task.parent = parent;
    ++graph_.task(parent).live_children;
  }

  register_and_release(task);
  return task.id;
}

void Runtime::register_and_release(Task& task) {
  std::vector<TaskId> preds;
  analyzer_.add_task(task.id, task.accesses, preds);
  if (sanitizer_ != nullptr) {
    sanitizer_->on_task_registered(task, preds, task.parent);
  }
  const std::uint32_t live = graph_.add_dependencies(task, preds);
  if (live == 0) {
    release_ready({task.id});
  }
}

Duration Runtime::busy_spread() const {
  const std::size_t workers = machine_.worker_count();
  if (workers == 0) return 0.0;
  Duration lo = scheduler_->estimated_busy(0);
  Duration hi = lo;
  for (WorkerId w = 1; w < workers; ++w) {
    const Duration busy = scheduler_->estimated_busy(w);
    lo = std::min(lo, busy);
    hi = std::max(hi, busy);
  }
  return hi - lo;
}

void Runtime::trace_granularity(core::TraceEventKind kind, TaskId task,
                                TenantId tenant, TaskTypeId type,
                                std::uint64_t size, Duration spread,
                                std::uint32_t children) {
  core::DecisionTrace& trace = scheduler_->decision_trace();
  if (!trace.enabled()) return;
  core::TraceEvent event;
  event.time = now();
  event.task = task;
  event.type = type;
  event.busy_term = spread;
  event.candidates = children;
  event.kind = kind;
  event.tenant = tenant;
  event.group = granularity_->group_key(size);
  event.children = children;
  trace.record(event);
}

bool Runtime::granular_submit(TaskTypeId type, AccessList& accesses,
                              std::uint64_t data_set_size,
                              SubmitOptions& options, TaskId& out) {
  const TaskId parent = executor_->current_task();
  std::uint32_t factor = 0;
  Duration spread = 0.0;
  core::GranularityDecision decision = core::GranularityDecision::kKeep;
  if (options.regranulate) {
    spread = busy_spread();
    decision = granularity_->decide(type, data_set_size, spread, factor);
  }

  // Window-ordering rule: a submission either joins the open fuse window
  // or flushes it before anything registers, so the analyzer sees tasks
  // in submission order and no dependence can bypass a parked member.
  const core::FuseRecipe* fuse =
      decision == core::GranularityDecision::kFuse
          ? granularity_->fuse_recipe(type)
          : nullptr;
  const bool joins =
      fuse != nullptr && fuse_window_.open && fuse_window_.type == type &&
      fuse_window_.graph == options.graph && fuse_window_.parent == parent &&
      fuse_window_.priority == options.priority &&
      fuse_window_.members.size() < fuse_window_.limit &&
      fuse->can_fuse(graph_.task(fuse_window_.members.back()).accesses,
                     accesses);
  if (!joins) flush_fuse_window();

  switch (decision) {
    case core::GranularityDecision::kKeep:
      return false;

    case core::GranularityDecision::kFuse: {
      // Create the member now — the caller gets a stable TaskId — but
      // defer analyzer registration to the window flush.
      Task& task = graph_.create_task(type, std::move(accesses),
                                      data_set_size, std::move(options.label),
                                      options.graph);
      task.priority = options.priority;
      task.submit_time = now();
      if (parent != kInvalidTask) {
        task.parent = parent;
        ++graph_.task(parent).live_children;
      }
      if (!fuse_window_.open) {
        fuse_window_.open = true;
        fuse_window_.type = type;
        fuse_window_.graph = options.graph;
        fuse_window_.parent = parent;
        fuse_window_.priority = options.priority;
        fuse_window_.limit = std::max(
            2u, std::min(fuse->window, granularity_->config().fuse_window));
        fuse_window_.members.clear();
      }
      fuse_window_.members.push_back(task.id);
      out = task.id;
      if (fuse_window_.members.size() >= fuse_window_.limit) {
        flush_fuse_window();
      }
      return true;
    }

    case core::GranularityDecision::kSplit: {
      const core::SplitRecipe* recipe = granularity_->split_recipe(type);
      std::vector<AccessList> parts;
      if (recipe == nullptr || !recipe->partition(accesses, factor, parts) ||
          parts.size() < 2) {
        // The recipe declined this instance (e.g. indivisible tile):
        // submit untouched.
        return false;
      }
      // Shell: keeps the original identity and dependence clauses but is
      // never registered with the analyzer nor released — its children
      // carry the dependences at byte granularity instead.
      Task& shell = graph_.create_task(type, std::move(accesses),
                                       data_set_size, std::move(options.label),
                                       options.graph);
      shell.priority = options.priority;
      shell.submit_time = now();
      if (parent != kInvalidTask) {
        shell.parent = parent;
        ++graph_.task(parent).live_children;
      }
      const TaskId shell_id = shell.id;
      shell.split_children = static_cast<std::uint32_t>(parts.size());
      shell.split_live = shell.split_children;

      std::vector<TaskId> ready;
      for (AccessList& part : parts) {
        std::uint64_t child_size = 0;
        for (std::size_t i = 0; i < part.size(); ++i) {
          const Access& access = part[i];
          const RegionDesc& desc = directory_.region(access.region);
          VERSA_CHECK_MSG(
              access.length > 0 && access.offset < desc.size &&
                  access.offset + access.length <= desc.size,
              "split recipe produced an out-of-range access");
          // Child data-set sizes come from the access *lengths* (each
          // region once), not the full region sizes: different tilings
          // must land in different profile groups for the controller to
          // learn from both.
          if (first_access_to_region(part, i)) child_size += access.length;
        }
        Task& child = graph_.create_task(recipe->child_type, std::move(part),
                                         child_size, std::string(),
                                         options.graph);
        child.priority = options.priority;
        child.submit_time = now();
        child.split_parent = shell_id;
        std::vector<TaskId> preds;
        analyzer_.add_task(child.id, child.accesses, preds);
        if (sanitizer_ != nullptr) {
          // The shell never registers; its children inherit the lineage
          // edge from the task whose body submitted the shell.
          sanitizer_->on_task_registered(child, preds,
                                         graph_.task(shell_id).parent);
        }
        if (graph_.add_dependencies(child, preds) == 0) {
          ready.push_back(child.id);
        }
      }
      trace_granularity(core::TraceEventKind::kSplit, shell_id,
                        graph_.task(shell_id).tenant, type, data_set_size,
                        spread, static_cast<std::uint32_t>(parts.size()));
      release_ready(ready);
      out = shell_id;
      return true;
    }
  }
  return false;
}

void Runtime::flush_fuse_window() {
  if (!fuse_window_.open) return;
  fuse_window_.open = false;
  std::vector<TaskId> members = std::move(fuse_window_.members);
  fuse_window_.members.clear();
  if (members.empty()) return;
  Task& host = graph_.task(members.front());
  if (members.size() == 1) {
    // A window of one fuses nothing: the member registers as submitted.
    register_and_release(host);
    return;
  }
  const core::FuseRecipe* recipe = granularity_->fuse_recipe(host.type);
  VERSA_CHECK(recipe != nullptr);
  std::vector<AccessList> lists;
  lists.reserve(members.size());
  for (TaskId id : members) lists.push_back(graph_.task(id).accesses);
  AccessList fused = recipe->fuse(lists);
  std::uint64_t fused_size = 0;
  for (std::size_t i = 0; i < fused.size(); ++i) {
    Access& access = fused[i];
    const RegionDesc& desc = directory_.region(access.region);
    if (access.length == 0) {
      VERSA_CHECK_MSG(access.offset < desc.size,
                      "fuse recipe produced an out-of-range access");
      access.length = desc.size - access.offset;
    }
    VERSA_CHECK_MSG(access.offset + access.length <= desc.size,
                    "fuse recipe produced an out-of-range access");
    if (first_access_to_region(fused, i)) fused_size += desc.size;
  }

  const Time stamp = now();
  for (std::size_t i = 1; i < members.size(); ++i) {
    Task& member = graph_.task(members[i]);
    member.fused_into = host.id;
    if (sanitizer_ != nullptr) {
      sanitizer_->on_task_absorbed(member.id, host.id);
    }
    graph_.finish_stub(member.id, stamp);
    if (member.parent != kInvalidTask) {
      Task& member_parent = graph_.task(member.parent);
      VERSA_CHECK(member_parent.live_children > 0);
      --member_parent.live_children;
    }
  }
  // The first member becomes the fused host; it remembers the pre-fusion
  // identity so completion can feed the controller at the original key.
  host.origin_type = host.type;
  host.origin_size = host.data_set_size;
  host.type = recipe->fused_type;
  graph_.replace_accesses(host, std::move(fused));
  host.data_set_size = fused_size;
  host.fused_count = static_cast<std::uint32_t>(members.size() - 1);
  trace_granularity(core::TraceEventKind::kFuse, host.id, host.tenant,
                    host.origin_type, host.origin_size, 0.0,
                    static_cast<std::uint32_t>(members.size()));
  register_and_release(host);
}

void Runtime::release_ready(const std::vector<TaskId>& ready) {
  if (ready.empty()) return;
  if (fair_share_ == nullptr) {
    dispatch_batch(ready);
    return;
  }
  // Service mode: each ready task must clear the fair-share gate first.
  // Parked tasks stay kCreated and are handed back by on_complete() when
  // the weighted round-robin reaches their tenant.
  std::vector<TaskId> dispatch;
  dispatch.reserve(ready.size());
  for (TaskId id : ready) {
    Task& task = graph_.task(id);
    if (fair_share_->offer(task.tenant, id)) dispatch.push_back(id);
  }
  dispatch_batch(dispatch);
}

void Runtime::dispatch_batch(const std::vector<TaskId>& batch) {
  if (batch.empty()) return;
  for (TaskId id : batch) {
    Task& task = graph_.task(id);
    VERSA_CHECK(task.state == TaskState::kCreated);
    task.state = TaskState::kReady;
    task.ready_time = now();
    scheduler_->task_ready(task);
  }
  scheduler_->ready_batch_done();
  executor_->work_available();
}

void Runtime::port_complete(TaskId id, WorkerId worker, Time start,
                            Time finish) {
  // Annotated VERSA_REQUIRES(mutex_) in the header, like port_failed: the
  // reporting executor already holds the runtime lock (the thread backend
  // locks around the call; the sim event loop holds it for the whole
  // wait), and the analysis checks every caller against that declaration.
  Task& task = graph_.task(id);
  task.start_time = start;
  task.measured_duration = finish - start;

  std::vector<TaskId> newly_ready;
  graph_.mark_finished(id, finish, newly_ready);
  makespan_ = std::max(makespan_, finish);
  if (sanitizer_ != nullptr) {
    // Witnesses (if any) were recorded by the executor before this report;
    // the checker runs conformance and shadows the touched bytes now.
    sanitizer_->on_task_complete(task);
  }
  if (task.parent != kInvalidTask) {
    Task& parent = graph_.task(task.parent);
    VERSA_CHECK(parent.live_children > 0);
    --parent.live_children;
  }

  // Split lineage: accumulate the child's time on its shell; the last
  // child retires the shell and feeds the controller's reversal CUSUM at
  // the original granularity key.
  if (task.split_parent != kInvalidTask) {
    Task& shell = graph_.task(task.split_parent);
    shell.split_accum += task.measured_duration;
    VERSA_CHECK(shell.split_live > 0);
    if (--shell.split_live == 0) {
      graph_.finish_stub(shell.id, finish);
      if (shell.parent != kInvalidTask) {
        Task& shell_parent = graph_.task(shell.parent);
        VERSA_CHECK(shell_parent.live_children > 0);
        --shell_parent.live_children;
      }
      if (granularity_ != nullptr &&
          granularity_->record_split_outcome(shell.type, shell.data_set_size,
                                             shell.split_accum,
                                             shell.split_children)) {
        trace_granularity(core::TraceEventKind::kReversal, shell.id,
                          shell.tenant, shell.type, shell.data_set_size, 0.0,
                          shell.split_children);
      }
    }
  }
  // Fused host: one completion stands for fused_count + 1 submissions.
  if (granularity_ != nullptr && task.fused_count > 0) {
    if (granularity_->record_fuse_outcome(task.origin_type, task.origin_size,
                                          task.measured_duration,
                                          task.fused_count + 1)) {
      trace_granularity(core::TraceEventKind::kReversal, task.id, task.tenant,
                        task.origin_type, task.origin_size, 0.0,
                        task.fused_count + 1);
    }
  }

  scheduler_->task_completed(task, worker, task.measured_duration);
  run_stats_.on_complete(task.type, task.chosen_version,
                         task.measured_duration);
  if (fair_share_ == nullptr) {
    release_ready(newly_ready);
    return;
  }
  // Service mode: the completion frees one window slot — refill it from
  // parked queues (weighted round-robin across tenants) *before* offering
  // this task's successors, so a backlogged tenant's parked work competes
  // fairly with the completing tenant's dependence chain. Both sets go to
  // the scheduler as one batch.
  std::vector<TaskId> dispatch;
  fair_share_->on_complete(task.tenant, dispatch);
  for (TaskId succ : newly_ready) {
    Task& s = graph_.task(succ);
    if (fair_share_->offer(s.tenant, succ)) dispatch.push_back(succ);
  }
  dispatch_batch(dispatch);
}

void Runtime::port_failed(TaskId id, WorkerId worker, Time /*start*/,
                          Time finish) {
  Task& task = graph_.task(id);
  VERSA_CHECK(task.state == TaskState::kRunning);
  ++failed_attempts_;
  makespan_ = std::max(makespan_, finish);
  scheduler_->task_failed(task, worker);
  // Back to ready: the scheduler re-decides version and worker, now aware
  // (through its busy estimates) that the failed worker lost time.
  task.state = TaskState::kReady;
  task.ready_time = finish;
  scheduler_->task_ready(task);
  scheduler_->ready_batch_done();
  executor_->work_available();
}

GraphId Runtime::open_graph(TenantId tenant) {
  versa::RecursiveLockGuard lock(mutex_);
  return graph_.open_graph(tenant);
}

void Runtime::wait_graph(GraphId graph) {
  if (granularity_ != nullptr) {
    // Parked fuse-window members would never run — close the window
    // before blocking on the graph.
    versa::RecursiveLockGuard lock(mutex_);
    flush_fuse_window();
  }
  executor_->wait_graph(graph);
}

void Runtime::set_fair_share(core::FairShareInterleaver* gate) {
  versa::RecursiveLockGuard lock(mutex_);
  fair_share_ = gate;
}

void Runtime::set_split_recipe(TaskTypeId type, core::SplitRecipe recipe) {
  versa::RecursiveLockGuard lock(mutex_);
  if (granularity_ != nullptr) {
    granularity_->set_split_recipe(type, std::move(recipe));
  }
}

void Runtime::set_fuse_recipe(TaskTypeId type, core::FuseRecipe recipe) {
  versa::RecursiveLockGuard lock(mutex_);
  if (granularity_ != nullptr) {
    granularity_->set_fuse_recipe(type, std::move(recipe));
  }
}

ProfileLoadResult Runtime::import_profile_text(const std::string& text) {
  versa::RecursiveLockGuard lock(mutex_);
  ProfileLoadResult result;
  if (text.empty()) return result;
  auto* versioning = dynamic_cast<VersioningScheduler*>(scheduler_.get());
  if (versioning == nullptr) {
    result.message = "scheduler has no profile table";
    return result;
  }
  return make_profile_store().import_text(text, versioning->mutable_profile());
}

std::string Runtime::export_profile_text() const {
  versa::RecursiveLockGuard lock(mutex_);
  const auto* versioning =
      dynamic_cast<const VersioningScheduler*>(scheduler_.get());
  if (versioning == nullptr) return {};
  return make_profile_store().serialize(versioning->profile());
}

void Runtime::task_assigned(TaskId task, WorkerId worker) {
  // Hand the executor a stable task reference (deque storage).
  executor_->task_queued(graph_.task(task), worker);
}

void Runtime::taskwait() {
  if (granularity_ != nullptr) {
    versa::RecursiveLockGuard lock(mutex_);
    flush_fuse_window();
  }
  const TaskId current = executor_->current_task();
  if (current != kInvalidTask) {
    // Inside a task body: children-scoped barrier, no global flush (the
    // enclosing master-level taskwait flushes).
    executor_->wait_children(current);
    return;
  }
  executor_->wait_all();
  versa::RecursiveLockGuard lock(mutex_);
  TransferList ops;
  directory_.flush_all(ops);
  makespan_ = std::max(makespan_, executor_->flush(ops));
}

void Runtime::taskwait_noflush() {
  if (granularity_ != nullptr) {
    versa::RecursiveLockGuard lock(mutex_);
    flush_fuse_window();
  }
  const TaskId current = executor_->current_task();
  if (current != kInvalidTask) {
    executor_->wait_children(current);
    return;
  }
  executor_->wait_all();
}

void Runtime::taskwait_on(RegionId region) {
  std::vector<TaskId> writers;
  {
    versa::RecursiveLockGuard lock(mutex_);
    if (granularity_ != nullptr) flush_fuse_window();
    analyzer_.last_writers(region, writers);
    writers.erase(std::remove_if(writers.begin(), writers.end(),
                                 [&](TaskId id) {
                                   return graph_.task(id).state ==
                                          TaskState::kFinished;
                                 }),
                  writers.end());
  }
  for (TaskId writer : writers) executor_->wait_task(writer);
  versa::RecursiveLockGuard lock(mutex_);
  TransferList ops;
  directory_.flush_region(region, ops);
  makespan_ = std::max(makespan_, executor_->flush(ops));
}

Time Runtime::now() const { return executor_->now(); }

Time Runtime::elapsed() const {
  versa::RecursiveLockGuard lock(mutex_);
  return makespan_;
}

std::uint64_t Runtime::failed_attempts() const {
  versa::RecursiveLockGuard lock(mutex_);
  return failed_attempts_;
}

ProfileLoadResult Runtime::profile_load_result() const {
  versa::RecursiveLockGuard lock(mutex_);
  return profile_load_;
}

TransferStats Runtime::transfer_stats() const { return directory_.stats(); }

const std::vector<TransferRecord>* Runtime::transfer_records() const {
  const auto* sim = dynamic_cast<const SimExecutor*>(executor_.get());
  return sim == nullptr ? nullptr : &sim->transfer_engine().records();
}

}  // namespace versa
