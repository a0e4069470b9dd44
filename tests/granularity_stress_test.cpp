// Granularity stress (run under TSan with VERSA_LOCK_ORDER=1 in CI):
// several client threads storm one shared runtime on the thread backend
// with --granularity=auto active, so the controller's decide/feedback
// path, the shell/child lineage and the fuse window all run concurrently
// with submission, dispatch, completion and graph retirement.
//
// The profile is primed through a hints file so the very first
// submissions already trigger both mechanisms: the coarse type's group
// mean (0.5 s) dwarfs any realistic busy spread and splits from the
// start, and the fine type sits well under the fuse threshold
// (4 x 20 us). The storm itself asserts reconciliation — every admitted
// graph completes and retires exactly — plus non-vacuity (splits
// happened); a single-threaded tail phase then fills one fuse window
// deterministically, since racing clients may legitimately flush each
// other's windows down to singletons.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "machine/presets.h"
#include "runtime/config.h"
#include "sched/core/granularity.h"
#include "service/versa_service.h"

namespace versa {
namespace {

using namespace versa::service;

constexpr std::uint64_t kCoarseBytes = 4096;
constexpr std::uint64_t kFineBytes = 256;

std::string write_hints() {
  const std::string path = testing::TempDir() + "/granularity_stress_hints.txt";
  std::ofstream out(path);
  out << "# versa hints v1\n"
      // Coarse type at its full-region group: half a second, splits.
      << "hint split_t smp " << kCoarseBytes << " 0.5 3\n"
      // Fine types at in(a) + inout(c): 10 us, fuses.
      << "hint fuse_t smp " << 2 * kFineBytes << " 1e-5 3\n"
      << "hint tail_t smp " << 2 * kFineBytes << " 1e-5 3\n";
  return path;
}

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

core::FuseRecipe shared_output_fuse(TaskTypeId fused_type) {
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

TEST(GranularityStress, ConcurrentSplitAndFuseReconcileExactly) {
  constexpr int kClients = 4;
  constexpr int kGraphsPerClient = 25;
  constexpr std::size_t kFinePerGraph = 4;
  constexpr std::size_t kCoarsePerGraph = 2;
  constexpr std::size_t kTasksPerGraph = kFinePerGraph + kCoarsePerGraph;

  const Machine machine = make_smp_machine(4);
  VersaServiceConfig config;
  config.runtime.backend = Backend::kThreads;
  config.runtime.scheduler = "versioning";
  config.runtime.profile_load_path = write_hints();
  ASSERT_TRUE(
      core::parse_granularity("auto", config.runtime.granularity));
  VersaService svc(machine, config);
  Runtime& rt = svc.runtime();

  std::atomic<std::uint64_t> executed{0};
  auto body = [&executed](TaskContext&) {
    executed.fetch_add(1, std::memory_order_relaxed);
  };
  const TaskTypeId split_t = rt.declare_task("split_t");
  const TaskTypeId split_child = rt.declare_task("split_child");
  const TaskTypeId fuse_t = rt.declare_task("fuse_t");
  const TaskTypeId fuse_batch = rt.declare_task("fuse_batch");
  const TaskTypeId tail_t = rt.declare_task("tail_t");
  for (TaskTypeId type : {split_t, split_child, fuse_t, fuse_batch, tail_t}) {
    rt.add_version(type, DeviceKind::kSmp, "smp", body);
  }
  rt.set_split_recipe(split_t, chunk_recipe(split_child));
  rt.set_fuse_recipe(fuse_t, shared_output_fuse(fuse_batch));
  rt.set_fuse_recipe(tail_t, shared_output_fuse(fuse_batch));

  // Per graph: four fine siblings sharing one output region (fusable in
  // windows when submissions of the same graph land back to back), then
  // two coarse inout generations over one big region (always split; the
  // second generation's children chain onto the first's byte ranges).
  GraphSpec spec;
  spec.regions.push_back({"c", kFineBytes});
  for (std::size_t i = 0; i < kFinePerGraph; ++i) {
    spec.regions.push_back({"a" + std::to_string(i), kFineBytes});
  }
  spec.regions.push_back({"big", kCoarseBytes});
  for (std::size_t i = 0; i < kFinePerGraph; ++i) {
    TaskSpec task;
    task.type = fuse_t;
    task.accesses.push_back({1 + i, AccessMode::kIn});
    task.accesses.push_back({0, AccessMode::kInOut});
    spec.tasks.push_back(task);
  }
  for (std::size_t i = 0; i < kCoarsePerGraph; ++i) {
    TaskSpec task;
    task.type = split_t;
    task.accesses.push_back({1 + kFinePerGraph, AccessMode::kInOut});
    spec.tasks.push_back(task);
  }

  std::vector<Session> sessions;
  sessions.push_back(svc.open_session("left", {}));
  sessions.push_back(svc.open_session("right", {}));

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    Session session = sessions[static_cast<std::size_t>(c % 2)];
    clients.emplace_back([&spec, session]() mutable {
      for (int g = 0; g < kGraphsPerClient; ++g) {
        const SubmitResult result = session.submit(spec);
        ASSERT_TRUE(result.admitted()) << result.rejected.detail;
        session.wait(result.graph);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Exact reconciliation per tenant, with re-tiling active throughout.
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const TenantStats stats = sessions[s].stats();
    EXPECT_EQ(stats.admitted_graphs,
              static_cast<std::uint64_t>(kClients / 2) * kGraphsPerClient);
    EXPECT_EQ(stats.rejected_graphs, 0u);
    EXPECT_EQ(stats.completed_graphs, stats.admitted_graphs);
    EXPECT_EQ(stats.completed_tasks, stats.admitted_graphs * kTasksPerGraph);
    EXPECT_EQ(stats.in_flight_tasks, 0u);
    EXPECT_EQ(stats.in_flight_bytes, 0u);
  }
  EXPECT_GT(executed.load(), 0u);

  // The coarse type's primed mean dominates any spread the tiny bodies
  // can build up: every coarse submission must have split.
  const core::GranularityController* controller = rt.granularity();
  ASSERT_NE(controller, nullptr);
  EXPECT_EQ(controller->stats().splits,
            static_cast<std::uint64_t>(kClients) * kGraphsPerClient *
                kCoarsePerGraph);
  EXPECT_GE(controller->stats().children_created,
            2 * controller->stats().splits);

  // Deterministic tail: with the storm quiet, four compatible siblings of
  // a type whose profile never drifted (tail_t was not used above) fill
  // one window to its limit and flush as a single fused task.
  const std::uint64_t fuses_before = controller->stats().fuses;
  GraphSpec tail;
  tail.regions.push_back({"c", kFineBytes});
  for (std::size_t i = 0; i < 4; ++i) {
    tail.regions.push_back({"a" + std::to_string(i), kFineBytes});
    TaskSpec task;
    task.type = tail_t;
    task.accesses.push_back({1 + i, AccessMode::kIn});
    task.accesses.push_back({0, AccessMode::kInOut});
    tail.tasks.push_back(task);
  }
  const SubmitResult result = sessions[0].submit(tail);
  ASSERT_TRUE(result.admitted()) << result.rejected.detail;
  sessions[0].wait(result.graph);
  EXPECT_EQ(controller->stats().fuses, fuses_before + 1);
  EXPECT_GE(controller->stats().tasks_fused, 3u);
}

}  // namespace
}  // namespace versa
