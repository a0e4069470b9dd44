// Unit tests for the discrete-event core: the sim backend's completion
// loop (time order, tie order, completions that start work, the clock
// invariant, the deadlock check, nested-wait dispatch) driven through a
// sim Runtime; noise model statistics.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "machine/presets.h"
#include "runtime/runtime.h"
#include "sim/noise.h"

namespace versa::sim {
namespace {

/// Noise-free sim runtime with the decision trace on (its `complete`
/// events give the completion order). dep-aware steals, so an idle worker
/// takes queued work wherever it was placed.
RuntimeConfig sim_config(const std::string& scheduler = "dep-aware") {
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = scheduler;
  config.noise.kind = NoiseKind::kNone;
  config.sched_trace = true;
  return config;
}

/// (task, virtual time) of every completion, in the order they fired.
std::vector<std::pair<TaskId, Time>> completions(Runtime& rt) {
  std::vector<std::pair<TaskId, Time>> out;
  for (const core::TraceEvent& e : rt.scheduler().decision_trace().events()) {
    if (e.kind == core::TraceEventKind::kComplete) {
      out.emplace_back(e.task, e.time);
    }
  }
  return out;
}

/// A body-less task type with one SMP version of constant `cost`.
TaskTypeId constant_type(Runtime& rt, const std::string& name, Duration cost) {
  const TaskTypeId type = rt.declare_task(name);
  rt.add_version(type, DeviceKind::kSmp, "smp", nullptr,
                 make_constant_cost(cost));
  return type;
}

// Durations below are powers of two, so every sum is exact.

TEST(SimExecutor, CompletionsRunInTimeOrder) {
  const Machine machine = make_smp_machine(3);
  Runtime rt(machine, sim_config());
  const TaskId slow = rt.submit(constant_type(rt, "slow", 0.75),
                                {Access::inout(rt.register_data("a", 64))});
  const TaskId fast = rt.submit(constant_type(rt, "fast", 0.25),
                                {Access::inout(rt.register_data("b", 64))});
  const TaskId mid = rt.submit(constant_type(rt, "mid", 0.5),
                               {Access::inout(rt.register_data("c", 64))});
  rt.taskwait();
  using Done = std::vector<std::pair<TaskId, Time>>;
  EXPECT_EQ(completions(rt), (Done{{fast, 0.25}, {mid, 0.5}, {slow, 0.75}}));
  EXPECT_EQ(rt.now(), 0.75);
}

TEST(SimExecutor, EqualFinishTimesCompleteInStartOrder) {
  // Two workers. `first` and `long_one` start at 0; `second` depends on
  // `first` and starts at 0.25 on the freed worker. `long_one` and
  // `second` both finish at 0.5: `long_one` started first, so it
  // completes first although `second` has the lower id.
  const Machine machine = make_smp_machine(2);
  Runtime rt(machine, sim_config());
  const TaskTypeId quarter = constant_type(rt, "quarter", 0.25);
  const RegionId a = rt.register_data("a", 64);
  const TaskId first = rt.submit(quarter, {Access::inout(a)});
  const TaskId second = rt.submit(quarter, {Access::inout(a)});
  const TaskId long_one = rt.submit(constant_type(rt, "half", 0.5),
                                    {Access::inout(rt.register_data("b", 64))});
  rt.taskwait();
  ASSERT_LT(second, long_one);
  EXPECT_EQ(rt.task_graph().task(second).start_time, 0.25);
  using Done = std::vector<std::pair<TaskId, Time>>;
  EXPECT_EQ(completions(rt),
            (Done{{first, 0.25}, {long_one, 0.5}, {second, 0.5}}));
}

TEST(SimExecutor, CompletionStartsTheWorkItReleases) {
  // One producer fans out to three consumers on three workers: all three
  // start at the producer's completion instant, and each of their
  // completions starts the next link of its own chain.
  const Machine machine = make_smp_machine(3);
  Runtime rt(machine, sim_config());
  const TaskTypeId quarter = constant_type(rt, "quarter", 0.25);
  const RegionId src = rt.register_data("src", 64);
  const TaskId producer = rt.submit(quarter, {Access::out(src)});
  std::vector<TaskId> consumers;
  std::vector<TaskId> tails;
  for (int i = 0; i < 3; ++i) {
    const RegionId own = rt.register_data("own" + std::to_string(i), 64);
    consumers.push_back(
        rt.submit(quarter, {Access::in(src), Access::out(own)}));
    tails.push_back(rt.submit(quarter, {Access::inout(own)}));
  }
  rt.taskwait();
  const TaskGraph& graph = rt.task_graph();
  EXPECT_EQ(graph.task(producer).finish_time, 0.25);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(graph.task(consumers[i]).start_time, 0.25) << i;
    EXPECT_EQ(graph.task(tails[i]).start_time, 0.5) << i;
    EXPECT_EQ(graph.task(tails[i]).finish_time, 0.75) << i;
  }
  EXPECT_EQ(completions(rt).size(), 7u);
  EXPECT_EQ(rt.now(), 0.75);
}

TEST(SimExecutor, ParentOutlivingItsModelledTimeCompletesAtTheWaitClock) {
  // The parent's own duration ends long before its child does. The
  // nested taskwait moves the clock to the child's finish, and the
  // parent's completion is scheduled there, never in the past (the
  // "event scheduled in the past" check guards this clamp).
  const Machine machine = make_smp_machine(2);
  Runtime rt(machine, sim_config());
  const TaskTypeId child = constant_type(rt, "child", 1.0);
  TaskId child_id = kInvalidTask;
  const TaskTypeId parent = rt.declare_task("parent");
  rt.add_version(
      parent, DeviceKind::kSmp, "smp",
      [&](TaskContext&) {
        child_id = rt.submit(child, {Access::inout(rt.register_data("c", 64))});
        rt.taskwait();
      },
      make_constant_cost(0.125));
  const TaskId parent_id =
      rt.submit(parent, {Access::inout(rt.register_data("p", 64))});
  rt.taskwait();
  const TaskGraph& graph = rt.task_graph();
  EXPECT_EQ(graph.task(child_id).finish_time, 1.0);
  EXPECT_EQ(graph.task(parent_id).finish_time, 1.0);
  using Done = std::vector<std::pair<TaskId, Time>>;
  EXPECT_EQ(completions(rt), (Done{{child_id, 1.0}, {parent_id, 1.0}}));
}

TEST(SimExecutorDeath, DrainedQueueWithUnfinishedTasksAborts) {
  // A GPU-only task on a host-only machine is never popped: the loop
  // drains every event with the task unfinished and must abort.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Machine machine = make_smp_machine(1);
  EXPECT_DEATH(
      {
        Runtime rt(machine, sim_config("fifo"));
        const TaskTypeId t = rt.declare_task("t");
        rt.add_version(t, DeviceKind::kCuda, "gpu-only", nullptr,
                       make_constant_cost(1e-3));
        rt.submit(t, {Access::in(rt.register_data("r", 64))});
        rt.taskwait();
      },
      "simulation deadlock");
}

TEST(SimExecutor, NestedWaitEndingOnLastChildDispatchesQueuedWork) {
  // Two workers. `y` runs on one and the parent on the other; the
  // parent's child queues behind them. `y` completes first, which
  // readies `z` (queued behind the child) and lets the child run. The
  // child's completion ends the parent's wait and frees its worker: `z`
  // must start at that instant, before the parent's body resumes.
  const Machine machine = make_smp_machine(2);
  Runtime rt(machine, sim_config());
  const RegionId y_out = rt.register_data("y", 64);
  const TaskId y = rt.submit(constant_type(rt, "y", 0.5),
                             {Access::out(y_out)});
  const TaskTypeId child = constant_type(rt, "child", 1.0);
  bool z_started = false;
  bool z_started_when_wait_returned = false;
  const TaskTypeId parent = rt.declare_task("parent");
  rt.add_version(
      parent, DeviceKind::kSmp, "smp",
      [&](TaskContext&) {
        rt.submit(child, {Access::inout(rt.register_data("c", 64))});
        rt.taskwait();
        z_started_when_wait_returned = z_started;
      },
      make_constant_cost(0.125));
  rt.submit(parent, {Access::inout(rt.register_data("p", 64))});
  const TaskTypeId z_type = rt.declare_task("z");
  rt.add_version(
      z_type, DeviceKind::kSmp, "smp",
      [&](TaskContext&) { z_started = true; }, make_constant_cost(1.0));
  const TaskId z = rt.submit(z_type, {Access::in(y_out)});
  rt.taskwait();
  const TaskGraph& graph = rt.task_graph();
  ASSERT_EQ(graph.task(y).finish_time, 0.5);
  EXPECT_TRUE(z_started_when_wait_returned);
  EXPECT_EQ(graph.task(z).start_time, 1.5);
}

TEST(Noise, NoneIsExact) {
  NoiseModel model({NoiseKind::kNone, 0.0}, Rng(1));
  EXPECT_DOUBLE_EQ(model.apply(0.5), 0.5);
}

TEST(Noise, ZeroDurationStaysZero) {
  NoiseModel model({NoiseKind::kLognormal, 0.05}, Rng(1));
  EXPECT_DOUBLE_EQ(model.apply(0.0), 0.0);
}

TEST(Noise, LognormalMeanIsUnbiased) {
  NoiseModel model({NoiseKind::kLognormal, 0.05}, Rng(3));
  Welford acc;
  for (int i = 0; i < 50000; ++i) {
    acc.add(model.apply(1.0));
  }
  EXPECT_NEAR(acc.mean(), 1.0, 0.005);
  EXPECT_NEAR(acc.stddev(), 0.05, 0.005);
}

TEST(Noise, UniformStaysInBand) {
  NoiseModel model({NoiseKind::kUniform, 0.1}, Rng(5));
  for (int i = 0; i < 10000; ++i) {
    const Duration d = model.apply(2.0);
    EXPECT_GE(d, 2.0 * 0.9 - 1e-12);
    EXPECT_LE(d, 2.0 * 1.1 + 1e-12);
  }
}

TEST(Noise, AlwaysStrictlyPositive) {
  NoiseModel model({NoiseKind::kLognormal, 0.5}, Rng(7));
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(model.apply(1e-9), 0.0);
  }
}

}  // namespace
}  // namespace versa::sim
