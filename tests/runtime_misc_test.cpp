// Miscellaneous runtime-surface tests: empty barriers, config validation,
// zero-work queries, and abort paths for API misuse.
#include <gtest/gtest.h>

#include "apps/cholesky.h"
#include "apps/pbpi.h"
#include "machine/presets.h"
#include "runtime/runtime.h"

namespace versa {
namespace {

TEST(RuntimeMisc, TaskwaitWithNoTasksIsImmediate) {
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  Runtime rt(machine, config);
  rt.taskwait();
  rt.taskwait_noflush();
  EXPECT_DOUBLE_EQ(rt.elapsed(), 0.0);
  EXPECT_EQ(rt.run_stats().total_tasks(), 0u);
}

TEST(RuntimeMisc, ThreadBackendEmptyTaskwait) {
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config;
  config.backend = Backend::kThreads;
  Runtime rt(machine, config);
  rt.taskwait();  // must not hang
  SUCCEED();
}

TEST(RuntimeMisc, TaskwaitOnUnwrittenRegionReturnsImmediately) {
  const Machine machine = make_smp_machine(1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  Runtime rt(machine, config);
  const RegionId r = rt.register_data("r", 64);
  rt.taskwait_on(r);  // no writer submitted
  SUCCEED();
}

TEST(RuntimeMisc, TaskwaitOnWaitsForTheLatestWriterOnly) {
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "dep-aware";
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  const RegionId fast = rt.register_data("fast", 64);
  const RegionId slow = rt.register_data("slow", 64);
  rt.submit(t, {Access::inout(fast)});
  // A long independent chain on another region.
  for (int i = 0; i < 20; ++i) {
    rt.submit(t, {Access::inout(slow)});
  }
  rt.taskwait_on(fast);
  // The fast writer is done; the slow chain need not be.
  EXPECT_EQ(rt.task_graph().task(0).state, TaskState::kFinished);
  EXPECT_FALSE(rt.task_graph().all_finished());
  rt.taskwait();
  EXPECT_TRUE(rt.task_graph().all_finished());
}

TEST(RuntimeMisc, TaskwaitOnWaitsForEveryDisjointWriter) {
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "dep-aware";
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId slow = rt.declare_task("slow");
  const TaskTypeId fast = rt.declare_task("fast");
  rt.add_version(slow, DeviceKind::kSmp, "v", nullptr,
                 make_constant_cost(1e-2));
  rt.add_version(fast, DeviceKind::kSmp, "v", nullptr,
                 make_constant_cost(1e-3));
  const RegionId r = rt.register_data("r", 64);
  // Independent writers of the two halves; the later one finishes first.
  const TaskId low = rt.submit(slow, {Access::out_range(r, 0, 32)});
  const TaskId high = rt.submit(fast, {Access::out_range(r, 32, 32)});
  rt.taskwait_on(r);
  EXPECT_EQ(rt.task_graph().task(low).state, TaskState::kFinished);
  EXPECT_EQ(rt.task_graph().task(high).state, TaskState::kFinished);
}

TEST(RuntimeMiscDeath, UnknownSchedulerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Machine machine = make_smp_machine(1);
  RuntimeConfig config;
  config.scheduler = "definitely-not-a-scheduler";
  EXPECT_DEATH({ Runtime rt(machine, config); }, "unknown scheduler");
}

TEST(RuntimeMiscDeath, ZeroSizedRegionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Machine machine = make_smp_machine(1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  EXPECT_DEATH(
      {
        Runtime rt(machine, config);
        rt.register_data("empty", 0);
      },
      "zero-sized region");
}

TEST(RuntimeMiscDeath, OutOfRangeAccessAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Machine machine = make_smp_machine(1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  EXPECT_DEATH(
      {
        Runtime rt(machine, config);
        const TaskTypeId t = rt.declare_task("t");
        rt.add_version(t, DeviceKind::kSmp, "v");
        const RegionId r = rt.register_data("r", 64);
        rt.submit(t, {Access::in_range(r, 32, 64)});  // exceeds region
      },
      "exceeds region");
}

TEST(RuntimeMisc, ConfigAccessorsReflectInputs) {
  const Machine machine = make_smp_machine(1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "affinity";
  config.profile.lambda = 9;
  Runtime rt(machine, config);
  EXPECT_EQ(rt.config().scheduler, "affinity");
  EXPECT_EQ(rt.config().profile.lambda, 9u);
  EXPECT_STREQ(rt.scheduler().name(), "affinity");
  EXPECT_EQ(&rt.machine(), &machine);
}

TEST(RuntimeMisc, VariantNamesAreStable) {
  EXPECT_STREQ(apps::to_string(apps::PotrfVariant::kSmp), "potrf-smp");
  EXPECT_STREQ(apps::to_string(apps::PotrfVariant::kGpu), "potrf-gpu");
  EXPECT_STREQ(apps::to_string(apps::PotrfVariant::kHybrid), "potrf-hyb");
  EXPECT_STREQ(apps::to_string(apps::PbpiVariant::kSmp), "pbpi-smp");
  EXPECT_STREQ(apps::to_string(apps::PbpiVariant::kGpu), "pbpi-gpu");
  EXPECT_STREQ(apps::to_string(apps::PbpiVariant::kHybrid), "pbpi-hyb");
}

}  // namespace
}  // namespace versa
