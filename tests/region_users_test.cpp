// The graph's per-region count of unfinished users (the O(1) guard behind
// unregister_data): checked against a brute-force scan of the task history
// through adaptive split/fuse and through injected failures, plus the
// death tests for regions held by a pending split shell or a fused host.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "machine/presets.h"
#include "runtime/runtime.h"
#include "sched/core/granularity.h"

namespace versa {
namespace {

/// The oracle: unfinished tasks naming `region` in their access list.
std::uint32_t scanned_users(const TaskGraph& graph, RegionId region) {
  std::uint32_t users = 0;
  for (const Task& task : graph.tasks()) {
    if (task.state == TaskState::kFinished) continue;
    for (const Access& access : task.accesses) {
      if (access.region == region) {
        ++users;
        break;
      }
    }
  }
  return users;
}

/// Every region ever registered (live or retired) agrees with the scan.
void expect_counts_match(Runtime& rt, const std::string& where) {
  // The runtime lock covers the directory's on the sim backend.
  versa::RecursiveLockGuard lock(rt.port_mutex());
  const TaskGraph& graph = rt.task_graph();
  for (RegionId r = 0; r < rt.data_directory().region_count(); ++r) {
    ASSERT_EQ(graph.region_users(r), scanned_users(graph, r))
        << "region " << r << " at " << where;
  }
}

/// A hints file private to the running test (ctest runs tests of one
/// binary in parallel processes sharing TempDir).
std::string write_hints(const std::string& body) {
  const std::string path =
      testing::TempDir() + "/region_users_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".txt";
  std::ofstream out(path);
  out << "# versa hints v1\n" << body;
  return path;
}

/// Split every access into `factor` contiguous chunks; part r takes chunk
/// r of each range.
core::SplitRecipe chunk_recipe(TaskTypeId child_type) {
  core::SplitRecipe recipe;
  recipe.child_type = child_type;
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

/// Siblings {in(a_i), inout(c)} sharing `c` fuse into one task reading
/// every a_i.
core::FuseRecipe gather_recipe(TaskTypeId fused_type) {
  core::FuseRecipe recipe;
  recipe.fused_type = fused_type;
  recipe.window = 4;
  recipe.can_fuse = [](const AccessList& last, const AccessList& next) {
    return last.back().region == next.back().region;
  };
  recipe.fuse = [](const std::vector<AccessList>& lists) {
    AccessList fused;
    for (const AccessList& list : lists) fused.push_back(list.front());
    fused.push_back(lists.front().back());
    return fused;
  };
  return recipe;
}

/// A runtime with granularity `auto` whose profile is primed so that
/// `big` (two 4 KiB regions) splits on an idle machine and `small`
/// ({in 100 B, inout 100 B}) fuses.
struct GranularProgram {
  explicit GranularProgram(const Machine& machine)
      : rt(machine, config()) {
    big = rt.declare_task("big");
    big_chunk = rt.declare_task("big_chunk");
    small = rt.declare_task("small");
    small_fused = rt.declare_task("small_fused");
    rt.add_version(big, DeviceKind::kSmp, "v", nullptr,
                   make_constant_cost(4e-3));
    rt.add_version(big_chunk, DeviceKind::kSmp, "v", nullptr,
                   make_constant_cost(1e-3));
    rt.add_version(small, DeviceKind::kSmp, "v", nullptr,
                   make_constant_cost(10e-6));
    rt.add_version(small_fused, DeviceKind::kSmp, "v", nullptr,
                   make_constant_cost(15e-6));
    rt.set_split_recipe(big, chunk_recipe(big_chunk));
    rt.set_fuse_recipe(small, gather_recipe(small_fused));
  }

  static RuntimeConfig config() {
    RuntimeConfig config;
    config.backend = Backend::kSim;
    config.scheduler = "versioning";
    config.noise.kind = sim::NoiseKind::kNone;
    EXPECT_TRUE(core::parse_granularity("auto", config.granularity));
    config.profile_load_path =
        write_hints("hint big v 8192 4e-3 3\nhint small v 200 1e-5 3\n");
    return config;
  }

  Runtime rt;
  TaskTypeId big = kInvalidTaskType;
  TaskTypeId big_chunk = kInvalidTaskType;
  TaskTypeId small = kInvalidTaskType;
  TaskTypeId small_fused = kInvalidTaskType;
};

TEST(RegionUsers, CountMatchesScanThroughSplitAndFuse) {
  const Machine machine = make_smp_machine(2);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    GranularProgram p(machine);
    Runtime& rt = p.rt;
    Rng rng(seed);
    std::vector<RegionId> tiles;   // 4 KiB, used by `big`
    std::vector<RegionId> inputs;  // 100 B, read by `small`
    std::vector<RegionId> sinks;   // 100 B, gathered into by `small`
    for (int i = 0; i < 5; ++i) {
      tiles.push_back(rt.register_data("tile" + std::to_string(i), 4096));
    }
    for (int i = 0; i < 6; ++i) {
      inputs.push_back(rt.register_data("in" + std::to_string(i), 100));
    }
    for (int i = 0; i < 2; ++i) {
      sinks.push_back(rt.register_data("sink" + std::to_string(i), 100));
    }
    auto pick = [&](const std::vector<RegionId>& pool) {
      return pool[rng.next_below(pool.size())];
    };
    GraphId graph = rt.open_graph();
    int retired = 0;

    for (int step = 0; step < 300; ++step) {
      const std::uint64_t roll = rng.next_below(100);
      Runtime::SubmitOptions options;
      options.graph = graph;
      if (roll < 40) {
        const RegionId src = pick(tiles);
        RegionId dst = pick(tiles);
        while (dst == src) dst = pick(tiles);
        rt.submit(p.big, {Access::in(src), Access::inout(dst)}, options);
      } else if (roll < 85) {
        rt.submit(p.small,
                  {Access::in(pick(inputs)), Access::inout(pick(sinks))},
                  options);
      } else if (roll < 90) {
        rt.taskwait_on(pick(roll % 2 == 0 ? tiles : sinks));
        expect_counts_match(rt, "taskwait_on");
      } else if (roll < 94) {
        rt.wait_graph(graph);
        expect_counts_match(rt, "wait_graph");
        graph = rt.open_graph();
      } else if (roll < 96) {
        rt.taskwait();
        expect_counts_match(rt, "taskwait");
      } else {
        // Retire a region the moment the scan says nobody holds it. Parked
        // fuse-window members count on both sides, and the flush that
        // unregister_data starts with moves their regions to the host.
        std::vector<RegionId>& pool = roll % 2 == 0 ? inputs : tiles;
        const std::size_t slot = rng.next_below(pool.size());
        if (scanned_users(rt.task_graph(), pool[slot]) == 0) {
          rt.unregister_data(pool[slot]);
          pool[slot] = rt.register_data("fresh" + std::to_string(step),
                                        &pool == &tiles ? 4096 : 100);
          ++retired;
        }
      }
      if (rng.next_below(4) == 0) {
        expect_counts_match(rt, "step " + std::to_string(step));
      }
      if (HasFatalFailure()) return;
    }
    // Everything finished, so the scan reads 0 and so must every count.
    rt.taskwait();
    ASSERT_TRUE(rt.task_graph().all_finished());
    expect_counts_match(rt, "end");
    EXPECT_GT(rt.granularity()->stats().splits, 0u) << "seed " << seed;
    EXPECT_GT(rt.granularity()->stats().fuses, 0u) << "seed " << seed;
    EXPECT_GT(retired, 0) << "seed " << seed;
  }
}

TEST(RegionUsers, CountMatchesScanUnderFailureInjection) {
  const Machine machine = make_minotauro_node(2, 1);
  for (std::uint64_t seed : {7u, 8u}) {
    RuntimeConfig config;
    config.backend = Backend::kSim;
    config.scheduler = "versioning";
    config.noise.kind = sim::NoiseKind::kNone;
    config.failure_rate = 0.3;
    config.seed = seed;
    Runtime rt(machine, config);
    const TaskTypeId t = rt.declare_task("t");
    rt.add_version(t, DeviceKind::kCuda, "g", nullptr,
                   make_constant_cost(1e-3));
    rt.add_version(t, DeviceKind::kSmp, "c", nullptr,
                   make_constant_cost(3e-3));
    Rng rng(seed);
    std::vector<RegionId> regions;
    for (int i = 0; i < 6; ++i) {
      regions.push_back(rt.register_data("r" + std::to_string(i), 256));
    }
    for (int step = 0; step < 300; ++step) {
      const std::uint64_t roll = rng.next_below(100);
      if (roll < 85) {
        // One or two random byte ranges, possibly on the same region.
        AccessList accesses;
        const std::uint64_t clauses = 1 + rng.next_below(2);
        for (std::uint64_t c = 0; c < clauses; ++c) {
          const std::uint64_t offset = rng.next_below(256);
          const std::uint64_t length = 1 + rng.next_below(256 - offset);
          accesses.push_back(
              Access{regions[rng.next_below(regions.size())],
                     static_cast<AccessMode>(rng.next_below(3)), offset,
                     length});
        }
        rt.submit(t, std::move(accesses));
      } else if (roll < 93) {
        rt.taskwait_on(regions[rng.next_below(regions.size())]);
        expect_counts_match(rt, "taskwait_on");
      } else if (roll < 97) {
        rt.taskwait();
        expect_counts_match(rt, "taskwait");
        const std::size_t slot = rng.next_below(regions.size());
        rt.unregister_data(regions[slot]);
        regions[slot] = rt.register_data("fresh" + std::to_string(step), 256);
      } else {
        expect_counts_match(rt, "step " + std::to_string(step));
      }
      if (HasFatalFailure()) return;
    }
    // Everything finished, so the scan reads 0 and so must every count.
    rt.taskwait();
    ASSERT_TRUE(rt.task_graph().all_finished());
    expect_counts_match(rt, "end");
    EXPECT_GT(rt.failed_attempts(), 0u) << "seed " << seed;
  }
}

TEST(RegionUsers, SplitShellCountsUntilItsLastChild) {
  const Machine machine = make_smp_machine(2);
  GranularProgram p(machine);
  const RegionId src = p.rt.register_data("src", 4096);
  const RegionId dst = p.rt.register_data("dst", 4096);
  const TaskId shell =
      p.rt.submit(p.big, {Access::in(src), Access::inout(dst)});
  const std::uint32_t children = p.rt.task_graph().task(shell).split_children;
  ASSERT_GE(children, 2u);
  // The shell and each child hold both regions.
  EXPECT_EQ(p.rt.task_graph().region_users(src), children + 1);
  EXPECT_EQ(p.rt.task_graph().region_users(dst), children + 1);
  p.rt.taskwait();
  EXPECT_EQ(p.rt.task_graph().task(shell).state, TaskState::kFinished);
  EXPECT_EQ(p.rt.task_graph().region_users(dst), 0u);
  p.rt.unregister_data(dst);
}

TEST(RegionUsers, FusedHostTakesOverItsMembersRegions) {
  const Machine machine = make_smp_machine(2);
  GranularProgram p(machine);
  const RegionId sink = p.rt.register_data("sink", 100);
  std::vector<RegionId> inputs;
  TaskId host = kInvalidTask;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(p.rt.register_data("in" + std::to_string(i), 100));
    const TaskId id =
        p.rt.submit(p.small, {Access::in(inputs.back()), Access::inout(sink)});
    if (host == kInvalidTask) host = id;
  }
  // The full window flushed into one host reading every input; the other
  // three members retired as stubs.
  ASSERT_EQ(p.rt.task_graph().task(host).fused_count, 3u);
  for (RegionId input : inputs) {
    EXPECT_EQ(p.rt.task_graph().region_users(input), 1u);
  }
  EXPECT_EQ(p.rt.task_graph().region_users(sink), 1u);
  p.rt.taskwait();
  for (RegionId input : inputs) p.rt.unregister_data(input);
  EXPECT_EQ(p.rt.task_graph().region_users(sink), 0u);
}

TEST(RegionUsersDeath, PendingSplitShellHoldsTheRegion) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Machine machine = make_smp_machine(2);
  EXPECT_DEATH(
      {
        GranularProgram p(machine);
        const RegionId src = p.rt.register_data("src", 4096);
        const RegionId dst = p.rt.register_data("dst", 4096);
        p.rt.submit(p.big, {Access::in(src), Access::inout(dst)});
        // Same program as SplitShellCountsUntilItsLastChild: the shell
        // and its children are still pending.
        p.rt.unregister_data(dst);
      },
      "unfinished tasks");
}

TEST(RegionUsersDeath, FusedHostHoldsAnAbsorbedMembersRegion) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Machine machine = make_smp_machine(2);
  EXPECT_DEATH(
      {
        GranularProgram p(machine);
        const RegionId sink = p.rt.register_data("sink", 100);
        RegionId last = 0;
        for (int i = 0; i < 4; ++i) {
          last = p.rt.register_data("in" + std::to_string(i), 100);
          p.rt.submit(p.small, {Access::in(last), Access::inout(sink)});
        }
        // Same program as FusedHostTakesOverItsMembersRegions: the member
        // that named `last` retired as a stub, and only the host that
        // absorbed its clause (not yet run) still holds the region.
        p.rt.unregister_data(last);
      },
      "unfinished tasks");
}

}  // namespace
}  // namespace versa
