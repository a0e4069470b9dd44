// Adaptive task granularity (DESIGN.md §11): the profile-guided split/fuse
// controller — config parsing, the decision/reversal rules in isolation,
// the runtime integration (shell/child lineage, fuse windows, barrier
// flushes), and functional exactness of re-tiled applications.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "apps/matmul.h"
#include "machine/presets.h"
#include "runtime/runtime.h"
#include "sched/core/granularity.h"
#include "sched/profile_table.h"
#include "task/version_registry.h"

namespace versa {
namespace {

using core::GranularityConfig;
using core::GranularityController;
using core::GranularityDecision;
using core::GranularityMode;

RuntimeConfig sim_config(const std::string& granularity = "off") {
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.noise.kind = sim::NoiseKind::kNone;
  EXPECT_TRUE(core::parse_granularity(granularity, config.granularity));
  return config;
}

core::SplitRecipe chunk_recipe(TaskTypeId child_type) {
  core::SplitRecipe recipe;
  recipe.child_type = child_type;
  // Split every access into `factor` contiguous chunks; part r takes
  // chunk r of each range. Covers the parent's bytes exactly.
  recipe.partition = [](const AccessList& parent, std::uint32_t factor,
                        std::vector<AccessList>& parts) {
    for (const Access& access : parent) {
      if (access.length % factor != 0) return false;
    }
    parts.assign(factor, parent);
    for (std::uint32_t r = 0; r < factor; ++r) {
      for (Access& access : parts[r]) {
        access.length /= factor;
        access.offset += static_cast<std::uint64_t>(r) * access.length;
      }
    }
    return true;
  };
  return recipe;
}

// --- parsing ---------------------------------------------------------------

TEST(GranularityParse, OffAutoAndFixedFactors) {
  GranularityConfig config;
  EXPECT_TRUE(core::parse_granularity("off", config));
  EXPECT_EQ(config.mode, GranularityMode::kOff);
  EXPECT_TRUE(core::parse_granularity("auto", config));
  EXPECT_EQ(config.mode, GranularityMode::kAuto);
  EXPECT_TRUE(core::parse_granularity("4", config));
  EXPECT_EQ(config.mode, GranularityMode::kFixed);
  EXPECT_EQ(config.fixed_factor, 4u);
  // N <= 1 means "do not re-tile": off.
  EXPECT_TRUE(core::parse_granularity("1", config));
  EXPECT_EQ(config.mode, GranularityMode::kOff);
  EXPECT_TRUE(core::parse_granularity("0", config));
  EXPECT_EQ(config.mode, GranularityMode::kOff);
}

TEST(GranularityParse, RejectsGarbageUntouched) {
  GranularityConfig config;
  config.mode = GranularityMode::kAuto;
  EXPECT_FALSE(core::parse_granularity("", config));
  EXPECT_FALSE(core::parse_granularity("fast", config));
  EXPECT_FALSE(core::parse_granularity("4x", config));
  EXPECT_FALSE(core::parse_granularity("-3", config));
  EXPECT_EQ(config.mode, GranularityMode::kAuto);  // untouched on failure
}

// --- controller decision rules (no runtime) --------------------------------

struct ControllerFixture {
  VersionRegistry registry;
  TaskTypeId type;
  VersionId version;
  ProfileTable table;

  ControllerFixture()
      : type(registry.declare_task("t")),
        version(
            registry.add_version(type, DeviceKind::kSmp, "v", nullptr, nullptr)),
        table(registry, {}) {}

  void record_mean(std::uint64_t size, Duration mean, int runs = 3) {
    for (int i = 0; i < runs; ++i) table.record(type, version, size, mean);
  }
};

TEST(GranularityController, FixedModeSplitsEverythingWithARecipe) {
  GranularityConfig config;
  config.mode = GranularityMode::kFixed;
  config.fixed_factor = 4;
  GranularityController controller(config);
  std::uint32_t factor = 0;
  // No recipe registered: nothing to split.
  EXPECT_EQ(controller.decide(0, 1000, 0.0, factor),
            GranularityDecision::kKeep);
  controller.set_split_recipe(0, chunk_recipe(1));
  EXPECT_EQ(controller.decide(0, 1000, 0.0, factor),
            GranularityDecision::kSplit);
  EXPECT_EQ(factor, 4u);
}

TEST(GranularityController, AutoSplitsWhenMeanDominatesSpread) {
  ControllerFixture f;
  GranularityConfig config;
  config.mode = GranularityMode::kAuto;
  GranularityController controller(config);
  controller.set_profile(&f.table);
  controller.set_split_recipe(f.type, chunk_recipe(1));

  std::uint32_t factor = 0;
  // No profiled mean yet: still learning at the original key, keep.
  EXPECT_EQ(controller.decide(f.type, 1000, 0.0, factor),
            GranularityDecision::kKeep);

  f.record_mean(1000, 1.0);
  // Mean 1 s against a 0.1 s spread: far too coarse. The chosen factor is
  // the smallest power of two whose per-child mean fits under the
  // threshold (1/8 <= 2 * 0.1), clamped by the recipe.
  EXPECT_EQ(controller.decide(f.type, 1000, 0.1, factor),
            GranularityDecision::kSplit);
  EXPECT_EQ(factor, 8u);
  // A machine already spread out by 1 s has nothing to gain: keep.
  EXPECT_EQ(controller.decide(f.type, 1000, 1.0, factor),
            GranularityDecision::kKeep);
  // Other sizes remain unprofiled: keep.
  EXPECT_EQ(controller.decide(f.type, 5000, 0.1, factor),
            GranularityDecision::kKeep);
}

TEST(GranularityController, AutoFusesBelowOverheadThreshold) {
  ControllerFixture f;
  GranularityConfig config;
  config.mode = GranularityMode::kAuto;
  GranularityController controller(config);
  controller.set_profile(&f.table);
  core::FuseRecipe fuse;
  fuse.fused_type = 2;
  fuse.window = 4;
  fuse.can_fuse = [](const AccessList&, const AccessList&) { return true; };
  fuse.fuse = [](const std::vector<AccessList>& lists) { return lists[0]; };
  controller.set_fuse_recipe(f.type, std::move(fuse));

  // Mean well under the fuse threshold (4 x the 20 us overhead estimate):
  // dispatch cost dominates, coalesce.
  f.record_mean(1000, 10e-6);
  std::uint32_t factor = 0;
  EXPECT_EQ(controller.decide(f.type, 1000, 0.0, factor),
            GranularityDecision::kFuse);
}

TEST(GranularityController, SplitReversalTripsAfterSustainedLosses) {
  ControllerFixture f;
  GranularityConfig config;
  config.mode = GranularityMode::kAuto;
  GranularityController controller(config);
  controller.set_profile(&f.table);
  controller.set_split_recipe(f.type, chunk_recipe(1));
  f.record_mean(1000, 1.0);

  std::uint32_t factor = 0;
  ASSERT_EQ(controller.decide(f.type, 1000, 0.0, factor),
            GranularityDecision::kSplit);

  // Children keep costing ~2x the profiled single-task baseline: each
  // outcome adds ~0.9 s of excess; the CUSUM alarms past 3 * baseline.
  int outcomes = 0;
  bool reversed = false;
  while (!reversed && outcomes < 10) {
    reversed = controller.record_split_outcome(f.type, 1000, 2.0, 4);
    ++outcomes;
  }
  EXPECT_TRUE(reversed);
  EXPECT_EQ(outcomes, 4);
  EXPECT_EQ(controller.stats().reversals, 1u);
  // The group is pinned back to its declared tiling from now on.
  EXPECT_EQ(controller.decide(f.type, 1000, 0.0, factor),
            GranularityDecision::kKeep);
}

TEST(GranularityController, WinningSplitsNeverReverse) {
  ControllerFixture f;
  GranularityConfig config;
  config.mode = GranularityMode::kAuto;
  GranularityController controller(config);
  controller.set_profile(&f.table);
  controller.set_split_recipe(f.type, chunk_recipe(1));
  f.record_mean(1000, 1.0);
  for (int i = 0; i < 100; ++i) {
    // Children together cost half the baseline: the split pays off and
    // the accumulator stays drained.
    EXPECT_FALSE(controller.record_split_outcome(f.type, 1000, 0.5, 4));
  }
  EXPECT_EQ(controller.stats().splits, 100u);
  EXPECT_EQ(controller.stats().reversals, 0u);
}

TEST(GranularityController, FuseReversalStopsFusing) {
  ControllerFixture f;
  GranularityConfig config;
  config.mode = GranularityMode::kAuto;
  GranularityController controller(config);
  controller.set_profile(&f.table);
  core::FuseRecipe fuse;
  fuse.fused_type = 2;
  fuse.window = 2;
  fuse.can_fuse = [](const AccessList&, const AccessList&) { return true; };
  fuse.fuse = [](const std::vector<AccessList>& lists) { return lists[0]; };
  controller.set_fuse_recipe(f.type, std::move(fuse));
  f.record_mean(1000, 10e-6);

  std::uint32_t factor = 0;
  ASSERT_EQ(controller.decide(f.type, 1000, 0.0, factor),
            GranularityDecision::kFuse);
  // A fused pair that costs 100x the two tasks it replaced keeps losing.
  bool reversed = false;
  for (int i = 0; !reversed && i < 100; ++i) {
    reversed = controller.record_fuse_outcome(f.type, 1000, 2e-3, 2);
  }
  EXPECT_TRUE(reversed);
  EXPECT_EQ(controller.decide(f.type, 1000, 0.0, factor),
            GranularityDecision::kKeep);
}

// --- row_band_partition ----------------------------------------------------

TEST(RowBandPartition, SplitsAAndCAndKeepsBWhole) {
  auto partition = core::row_band_partition(128);
  const AccessList parent = {Access::in_range(0, 0, 1024),
                             Access::in_range(1, 0, 4096),
                             Access::inout_range(2, 512, 1024)};
  std::vector<AccessList> parts;
  ASSERT_TRUE(partition(parent, 4, parts));
  ASSERT_EQ(parts.size(), 4u);
  for (std::uint32_t r = 0; r < 4; ++r) {
    ASSERT_EQ(parts[r].size(), 3u);
    EXPECT_EQ(parts[r][0].offset, r * 256u);
    EXPECT_EQ(parts[r][0].length, 256u);
    EXPECT_EQ(parts[r][0].mode, AccessMode::kIn);
    // B stays whole.
    EXPECT_EQ(parts[r][1].offset, 0u);
    EXPECT_EQ(parts[r][1].length, 4096u);
    // C bands keep the parent's base offset and mode.
    EXPECT_EQ(parts[r][2].offset, 512 + r * 256u);
    EXPECT_EQ(parts[r][2].length, 256u);
    EXPECT_EQ(parts[r][2].mode, AccessMode::kInOut);
  }
}

TEST(RowBandPartition, DeclinesIndivisibleOrMalformedShapes) {
  auto partition = core::row_band_partition(128);
  std::vector<AccessList> parts;
  // 8 rows do not divide by 3.
  EXPECT_FALSE(partition({Access::in_range(0, 0, 1024),
                          Access::in_range(1, 0, 1024),
                          Access::inout_range(2, 0, 1024)},
                         3, parts));
  // A and C lengths differ.
  EXPECT_FALSE(partition({Access::in_range(0, 0, 1024),
                          Access::in_range(1, 0, 1024),
                          Access::inout_range(2, 0, 512)},
                         2, parts));
  // Not the 3-access GEMM shape.
  EXPECT_FALSE(partition({Access::inout_range(0, 0, 1024)}, 2, parts));
  // Length not a multiple of the row stride.
  EXPECT_FALSE(partition({Access::in_range(0, 0, 1000),
                          Access::in_range(1, 0, 1024),
                          Access::inout_range(2, 0, 1000)},
                         2, parts));
}

// --- runtime integration ---------------------------------------------------

TEST(GranularityRuntime, OffModeHasNoControllerAndRecipesAreNoops) {
  const Machine machine = make_smp_machine(2);
  Runtime rt(machine, sim_config("off"));
  EXPECT_EQ(rt.granularity(), nullptr);
  const TaskTypeId t = rt.declare_task("t");
  const TaskTypeId tc = rt.declare_task("tc");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  rt.set_split_recipe(t, chunk_recipe(tc));  // must be a harmless no-op
  const RegionId r = rt.register_data("r", 4096);
  rt.submit(t, {Access::inout(r)});
  rt.taskwait();
  EXPECT_EQ(rt.task_graph().size(), 1u);
  EXPECT_NEAR(rt.elapsed(), 1e-3, 1e-9);
}

TEST(GranularityRuntime, FixedSplitCreatesShellAndChildren) {
  const Machine machine = make_smp_machine(4);
  Runtime rt(machine, sim_config("4"));
  ASSERT_NE(rt.granularity(), nullptr);
  const TaskTypeId t = rt.declare_task("t");
  const TaskTypeId tc = rt.declare_task("t_chunk");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(4e-3));
  rt.add_version(tc, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  rt.set_split_recipe(t, chunk_recipe(tc));

  const RegionId r = rt.register_data("r", 4096);
  const TaskId id = rt.submit(t, {Access::inout(r)});
  rt.taskwait();

  // Four independent children on four workers: one wave.
  EXPECT_NEAR(rt.elapsed(), 1e-3, 1e-9);
  const TaskGraph& graph = rt.task_graph();
  ASSERT_EQ(graph.size(), 5u);  // shell + 4 children
  const Task& shell = graph.task(id);
  EXPECT_EQ(shell.type, t);
  EXPECT_EQ(shell.state, TaskState::kFinished);
  EXPECT_EQ(shell.split_children, 4u);
  EXPECT_EQ(shell.split_live, 0u);
  EXPECT_NEAR(shell.split_accum, 4e-3, 1e-9);  // summed child time
  std::size_t children = 0;
  for (const Task& task : graph.tasks()) {
    if (task.split_parent == kInvalidTask) continue;
    ++children;
    EXPECT_EQ(task.split_parent, id);
    EXPECT_EQ(task.type, tc);
    EXPECT_EQ(task.state, TaskState::kFinished);
    EXPECT_EQ(task.data_set_size, 1024u);  // chunk bytes, not region bytes
  }
  EXPECT_EQ(children, 4u);
  EXPECT_EQ(rt.granularity()->stats().splits, 1u);
  EXPECT_EQ(rt.granularity()->stats().children_created, 4u);
}

TEST(GranularityRuntime, RegranulateFalsePinsTheDeclaredTiling) {
  const Machine machine = make_smp_machine(4);
  Runtime rt(machine, sim_config("4"));
  const TaskTypeId t = rt.declare_task("t");
  const TaskTypeId tc = rt.declare_task("t_chunk");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(4e-3));
  rt.add_version(tc, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  rt.set_split_recipe(t, chunk_recipe(tc));
  const RegionId r = rt.register_data("r", 4096);
  Runtime::SubmitOptions options;
  options.regranulate = false;
  rt.submit(t, {Access::inout(r)}, options);
  rt.taskwait();
  EXPECT_EQ(rt.task_graph().size(), 1u);
  EXPECT_NEAR(rt.elapsed(), 4e-3, 1e-9);
  EXPECT_EQ(rt.granularity()->stats().splits, 0u);
}

TEST(GranularityRuntime, SplitChildrenPreserveChunkwiseDependences) {
  const Machine machine = make_smp_machine(4);
  Runtime rt(machine, sim_config("4"));
  const TaskTypeId t = rt.declare_task("t");
  const TaskTypeId tc = rt.declare_task("t_chunk");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(4e-3));
  rt.add_version(tc, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  rt.set_split_recipe(t, chunk_recipe(tc));
  const RegionId r = rt.register_data("r", 4096);
  // Two inout generations over the same region: chunk i of the second
  // must wait for chunk i of the first — two waves, not one, not eight.
  rt.submit(t, {Access::inout(r)});
  rt.submit(t, {Access::inout(r)});
  rt.taskwait();
  EXPECT_NEAR(rt.elapsed(), 2e-3, 1e-9);
}

TEST(GranularityRuntime, DeclinedPartitionFallsBackToPlainSubmission) {
  const Machine machine = make_smp_machine(4);
  Runtime rt(machine, sim_config("3"));  // 4096 % 3 != 0: recipe declines
  const TaskTypeId t = rt.declare_task("t");
  const TaskTypeId tc = rt.declare_task("t_chunk");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(4e-3));
  rt.add_version(tc, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  rt.set_split_recipe(t, chunk_recipe(tc));
  const RegionId r = rt.register_data("r", 4096);
  rt.submit(t, {Access::inout(r)});
  rt.taskwait();
  EXPECT_EQ(rt.task_graph().size(), 1u);
  EXPECT_NEAR(rt.elapsed(), 4e-3, 1e-9);
}

// Fuse tests prime the profile through a hints file so the controller has
// a baseline mean from the very first submission (one-pass determinism).
class GranularityFuse : public testing::Test {
 protected:
  std::string write_hints(const std::string& body) {
    const std::string path = testing::TempDir() + "/granularity_hints.txt";
    std::ofstream out(path);
    out << "# versa hints v1\n" << body;
    return path;
  }

  void setup_runtime(Runtime& rt) {
    t_ = rt.declare_task("t");
    tf_ = rt.declare_task("t_fused");
    rt.add_version(t_, DeviceKind::kSmp, "v", nullptr,
                   make_constant_cost(10e-6));
    rt.add_version(tf_, DeviceKind::kSmp, "v", nullptr,
                   make_constant_cost(15e-6));
    core::FuseRecipe fuse;
    fuse.fused_type = tf_;
    fuse.window = 4;
    // Siblings fuse when they share the output region (the last access).
    fuse.can_fuse = [](const AccessList& last, const AccessList& next) {
      return last.back().region == next.back().region;
    };
    fuse.fuse = [](const std::vector<AccessList>& lists) {
      AccessList fused;
      for (const AccessList& list : lists) fused.push_back(list.front());
      fused.push_back(lists.front().back());
      return fused;
    };
    rt.set_fuse_recipe(t_, std::move(fuse));
  }

  TaskTypeId t_ = kInvalidTaskType;
  TaskTypeId tf_ = kInvalidTaskType;
};

TEST_F(GranularityFuse, FullWindowFlushesIntoOneFusedTask) {
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config = sim_config("auto");
  // dss of each member: in(a_i, 100) + inout(c, 100) = 200.
  config.profile_load_path = write_hints("hint t v 200 1e-5 3\n");
  Runtime rt(machine, config);
  setup_runtime(rt);

  const RegionId c = rt.register_data("c", 100);
  std::vector<TaskId> members;
  for (int i = 0; i < 4; ++i) {
    const RegionId a = rt.register_data("a" + std::to_string(i), 100);
    members.push_back(rt.submit(t_, {Access::in(a), Access::inout(c)}));
  }
  rt.taskwait();

  const TaskGraph& graph = rt.task_graph();
  ASSERT_EQ(graph.size(), 4u);
  const Task& host = graph.task(members[0]);
  EXPECT_EQ(host.type, tf_);
  EXPECT_EQ(host.origin_type, t_);
  EXPECT_EQ(host.origin_size, 200u);
  EXPECT_EQ(host.fused_count, 3u);
  EXPECT_EQ(host.accesses.size(), 5u);  // 4 inputs + shared output
  for (std::size_t i = 1; i < members.size(); ++i) {
    const Task& absorbed = graph.task(members[i]);
    EXPECT_EQ(absorbed.fused_into, members[0]);
    EXPECT_EQ(absorbed.state, TaskState::kFinished);
  }
  // One fused execution stands for all four submissions.
  EXPECT_NEAR(rt.elapsed(), 15e-6, 1e-12);
  EXPECT_EQ(rt.granularity()->stats().fuses, 1u);
  EXPECT_EQ(rt.granularity()->stats().tasks_fused, 3u);
}

TEST_F(GranularityFuse, TaskwaitFlushesAPartialWindow) {
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config = sim_config("auto");
  config.profile_load_path = write_hints("hint t v 200 1e-5 3\n");
  Runtime rt(machine, config);
  setup_runtime(rt);

  const RegionId c = rt.register_data("c", 100);
  const RegionId a0 = rt.register_data("a0", 100);
  const RegionId a1 = rt.register_data("a1", 100);
  rt.submit(t_, {Access::in(a0), Access::inout(c)});
  rt.submit(t_, {Access::in(a1), Access::inout(c)});
  // Window limit is 4; with only 2 members parked, the barrier must
  // flush — otherwise this deadlocks.
  rt.taskwait();
  EXPECT_EQ(rt.granularity()->stats().fuses, 1u);
  EXPECT_EQ(rt.granularity()->stats().tasks_fused, 1u);
  EXPECT_NEAR(rt.elapsed(), 15e-6, 1e-12);
}

TEST_F(GranularityFuse, SingleMemberWindowRunsAsItself) {
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config = sim_config("auto");
  config.profile_load_path = write_hints("hint t v 200 1e-5 3\n");
  Runtime rt(machine, config);
  setup_runtime(rt);
  const RegionId c = rt.register_data("c", 100);
  const RegionId a = rt.register_data("a", 100);
  const TaskId id = rt.submit(t_, {Access::in(a), Access::inout(c)});
  rt.taskwait();
  // A window of one fuses nothing: the member runs under its own type.
  EXPECT_EQ(rt.task_graph().task(id).type, t_);
  EXPECT_EQ(rt.granularity()->stats().fuses, 0u);
  EXPECT_NEAR(rt.elapsed(), 10e-6, 1e-12);
}

TEST_F(GranularityFuse, IncompatibleSubmissionFlushesTheOpenWindow) {
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config = sim_config("auto");
  config.profile_load_path = write_hints("hint t v 200 1e-5 3\n");
  Runtime rt(machine, config);
  setup_runtime(rt);
  const RegionId c0 = rt.register_data("c0", 100);
  const RegionId c1 = rt.register_data("c1", 100);
  const RegionId a0 = rt.register_data("a0", 100);
  const RegionId a1 = rt.register_data("a1", 100);
  const RegionId a2 = rt.register_data("a2", 100);
  // Two siblings open a window on c0; the third targets c1 and cannot
  // join — the open window must flush (in submission order) first.
  rt.submit(t_, {Access::in(a0), Access::inout(c0)});
  rt.submit(t_, {Access::in(a1), Access::inout(c0)});
  rt.submit(t_, {Access::in(a2), Access::inout(c1)});
  rt.taskwait();
  // Both windows fused: c0's pair, then c1's singleton (registered plain).
  EXPECT_EQ(rt.granularity()->stats().fuses, 1u);
  EXPECT_EQ(rt.granularity()->stats().tasks_fused, 1u);
}

// --- application-level exactness -------------------------------------------

TEST(GranularityApps, MatmulStaysExactUnderFixedSplit) {
  const Machine machine = make_minotauro_node(2, 1);
  Runtime rt(machine, sim_config("4"));
  apps::MatmulParams params;
  params.n = 128;
  params.tile = 32;
  params.hybrid = true;
  params.real_compute = true;
  apps::MatmulApp app(rt, params);
  ASSERT_NE(app.band_type(), kInvalidTaskType);
  app.run();
  EXPECT_LT(app.max_error(), 1e-9);
  // Every tile product (4^3) was re-tiled into 4 row bands.
  EXPECT_EQ(rt.granularity()->stats().splits, 64u);
  EXPECT_EQ(rt.granularity()->stats().children_created, 256u);
}

TEST(GranularityApps, MatmulStaysExactUnderAutoFusion) {
  const Machine machine = make_minotauro_node(2, 1);
  RuntimeConfig config = sim_config("auto");
  // Prime all three tile versions well under the fuse threshold so the
  // k-loop siblings coalesce from the first submission on. Group key =
  // 3 * 32 * 32 * 8 bytes = 24576.
  const std::string path = testing::TempDir() + "/matmul_fuse_hints.txt";
  {
    std::ofstream out(path);
    out << "# versa hints v1\n"
        << "hint matmul_tile cublas 24576 1e-5 3\n"
        << "hint matmul_tile cuda 24576 2e-5 3\n"
        << "hint matmul_tile cblas 24576 3e-5 3\n";
  }
  config.profile_load_path = path;
  Runtime rt(machine, config);
  apps::MatmulParams params;
  params.n = 128;
  params.tile = 32;
  params.hybrid = true;
  params.real_compute = true;
  apps::MatmulApp app(rt, params);
  ASSERT_NE(app.fused_type(), kInvalidTaskType);
  app.run();
  EXPECT_LT(app.max_error(), 1e-9);
  // 64 submissions in windows of 2: 32 fused pairs.
  EXPECT_EQ(rt.granularity()->stats().fuses, 32u);
  EXPECT_EQ(rt.granularity()->stats().tasks_fused, 32u);
}

TEST(GranularityApps, OffModeRunsAreByteIdenticalToPreControllerRuns) {
  // Same seed, same machine: a run with the feature compiled in but off
  // must produce the same virtual timeline as one that never heard of it.
  auto elapsed_with = [](const std::string& granularity) {
    const Machine machine = make_minotauro_node(4, 2);
    RuntimeConfig config;
    config.backend = Backend::kSim;
    config.scheduler = "versioning";
    config.seed = 42;
    if (granularity != "default") {
      EXPECT_TRUE(core::parse_granularity(granularity, config.granularity));
    }
    Runtime rt(machine, config);
    apps::MatmulParams params;
    params.n = 4096;
    params.tile = 1024;
    apps::MatmulApp app(rt, params);
    app.run();
    return rt.elapsed();
  };
  EXPECT_EQ(elapsed_with("default"), elapsed_with("off"));
}

}  // namespace
}  // namespace versa
