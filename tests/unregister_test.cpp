// Tests for region deregistration (dynamic workloads freeing blocks).
#include <gtest/gtest.h>

#include "machine/presets.h"
#include "runtime/runtime.h"

namespace versa {
namespace {

RuntimeConfig sim_config() {
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "dep-aware";
  config.noise.kind = sim::NoiseKind::kNone;
  return config;
}

TEST(Unregister, ReleasesSpaceBytesEverywhere) {
  const Machine machine = make_minotauro_node(1, 1);
  Runtime rt(machine, sim_config());
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "v", nullptr, make_constant_cost(1e-3));
  const RegionId r = rt.register_data("r", 1 << 20);
  rt.submit(t, {Access::inout(r)});
  rt.taskwait();

  const SpaceId gpu = machine.worker(1).space;
  // Directory reads hold the runtime lock, which covers the directory's
  // on the sim backend; unregister_data re-enters it.
  versa::RecursiveLockGuard lock(rt.port_mutex());
  EXPECT_GT(rt.data_directory().used_bytes(gpu), 0u);
  const std::uint64_t host_before =
      rt.data_directory().used_bytes(kHostSpace);
  rt.unregister_data(r);
  EXPECT_EQ(rt.data_directory().used_bytes(gpu), 0u);
  EXPECT_EQ(rt.data_directory().used_bytes(kHostSpace),
            host_before - (1 << 20));
  EXPECT_FALSE(rt.data_directory().is_registered(r));
}

TEST(Unregister, IdsAreNotReusedAndHistoryIsForgotten) {
  const Machine machine = make_smp_machine(1);
  Runtime rt(machine, sim_config());
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  const RegionId old_region = rt.register_data("old", 64);
  rt.submit(t, {Access::out(old_region)});
  rt.taskwait();
  rt.unregister_data(old_region);

  const RegionId fresh = rt.register_data("fresh", 64);
  EXPECT_NE(fresh, old_region);
  // A task on the fresh region has no spurious dependence on the old
  // region's history.
  const TaskId id = rt.submit(t, {Access::in(fresh)});
  rt.taskwait();
  EXPECT_EQ(rt.task_graph().task(id).state, TaskState::kFinished);
}

TEST(Unregister, LiveRegionCountTracks) {
  const Machine machine = make_smp_machine(1);
  Runtime rt(machine, sim_config());
  const RegionId a = rt.register_data("a", 64);
  rt.register_data("b", 64);
  versa::RecursiveLockGuard lock(rt.port_mutex());  // covers the directory
  EXPECT_EQ(rt.data_directory().live_region_count(), 2u);
  rt.unregister_data(a);
  EXPECT_EQ(rt.data_directory().live_region_count(), 1u);
  EXPECT_EQ(rt.data_directory().region_count(), 2u);  // tombstoned
}

TEST(UnregisterDeath, UnfinishedUserAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Machine machine = make_smp_machine(1);
  EXPECT_DEATH(
      {
        Runtime rt(machine, sim_config());
        const TaskTypeId t = rt.declare_task("t");
        rt.add_version(t, DeviceKind::kSmp, "v", nullptr,
                       make_constant_cost(1e-3));
        const RegionId r = rt.register_data("r", 64);
        rt.submit(t, {Access::inout(r)});
        rt.unregister_data(r);  // task not yet finished
      },
      "unfinished tasks");
}

TEST(UnregisterDeath, UseAfterUnregisterAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Machine machine = make_smp_machine(1);
  EXPECT_DEATH(
      {
        Runtime rt(machine, sim_config());
        const TaskTypeId t = rt.declare_task("t");
        rt.add_version(t, DeviceKind::kSmp, "v", nullptr,
                       make_constant_cost(1e-3));
        const RegionId r = rt.register_data("r", 64);
        rt.unregister_data(r);
        rt.submit(t, {Access::in(r)});
      },
      "unregistered");
}

}  // namespace
}  // namespace versa
