// Tests for the SparseLU workload: sparsity pattern, dynamic fill-in
// (regions registered between submissions), functional correctness vs a
// sequential replay, and hybrid scheduling.
#include <gtest/gtest.h>

#include "apps/sparselu.h"
#include "machine/presets.h"
#include "runtime/runtime.h"

namespace versa::apps {
namespace {

RuntimeConfig sim_config(const std::string& scheduler = "versioning") {
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = scheduler;
  config.noise.kind = sim::NoiseKind::kNone;
  return config;
}

SparseLuParams small_params() {
  SparseLuParams params;
  params.blocks = 6;
  params.block_size = 16;
  params.density = 0.4;
  params.real_compute = true;
  return params;
}

TEST(SparseLu, PatternHasDiagonalAndRespectsDensity) {
  const Machine machine = make_minotauro_node(2, 1);
  Runtime rt(machine, sim_config());
  SparseLuParams params;
  params.blocks = 12;
  params.block_size = 8;
  params.density = 0.3;
  SparseLuApp app(rt, params);
  // Diagonal always present; off-diagonal roughly density * count.
  EXPECT_GE(app.initial_block_count(), params.blocks);
  const std::size_t off_diagonal =
      app.initial_block_count() - params.blocks;
  const double expected = 0.3 * (12.0 * 12.0 - 12.0);
  EXPECT_NEAR(static_cast<double>(off_diagonal), expected, expected * 0.5);
}

TEST(SparseLu, FillInMaterializesNewRegions) {
  const Machine machine = make_minotauro_node(2, 1);
  Runtime rt(machine, sim_config());
  SparseLuParams params;
  params.blocks = 10;
  params.block_size = 8;
  params.density = 0.4;
  SparseLuApp app(rt, params);
  // Directory reads hold the runtime lock, which covers the directory's
  // on the sim backend.
  const std::size_t before = [&] {
    versa::RecursiveLockGuard lock(rt.port_mutex());
    return rt.data_directory().region_count();
  }();
  app.run();
  EXPECT_GT(app.fill_in_count(), 0u);
  {
    versa::RecursiveLockGuard lock(rt.port_mutex());
    EXPECT_EQ(rt.data_directory().region_count(),
              before + app.fill_in_count());
  }
  EXPECT_GT(app.task_count(), params.blocks);  // lu0 per step plus panels
  EXPECT_EQ(rt.run_stats().total_tasks(), app.task_count());
}

TEST(SparseLu, MatchesSequentialReplayOnSim) {
  const Machine machine = make_minotauro_node(2, 2);
  Runtime rt(machine, sim_config());
  SparseLuApp app(rt, small_params());
  app.run();
  EXPECT_LT(app.max_error(), 1e-4);
}

TEST(SparseLu, MatchesSequentialReplayUnderEveryScheduler) {
  for (const char* scheduler :
       {"fifo", "dep-aware", "affinity", "versioning", "versioning-locality"}) {
    const Machine machine = make_minotauro_node(2, 2);
    Runtime rt(machine, sim_config(scheduler));
    SparseLuApp app(rt, small_params());
    app.run();
    EXPECT_LT(app.max_error(), 1e-4) << scheduler;
  }
}

TEST(SparseLu, MatchesSequentialReplayOnThreads) {
  const Machine machine = make_smp_machine(4);
  RuntimeConfig config;
  config.backend = Backend::kThreads;
  config.scheduler = "versioning";  // SMP-only machine needs version sets
  Runtime rt(machine, config);
  SparseLuApp app(rt, small_params());
  app.run();
  EXPECT_LT(app.max_error(), 1e-4);
}

TEST(SparseLu, HybridSplitsAcrossDeviceKinds) {
  const Machine machine = make_minotauro_node(8, 1);
  RuntimeConfig config = sim_config("versioning");
  config.profile.lambda = 2;
  Runtime rt(machine, config);
  SparseLuParams params;
  params.blocks = 20;
  params.block_size = 128;
  params.density = 0.5;
  SparseLuApp app(rt, params);
  app.run();
  std::uint64_t smp_runs = 0;
  for (const VersionId v : rt.version_registry().versions(app.bmod_type())) {
    if (rt.version_registry().version(v).device == DeviceKind::kSmp) {
      smp_runs += rt.run_stats().count(v);
    }
  }
  EXPECT_GT(smp_runs, 0u);
}

TEST(SparseLu, DeterministicAcrossRuns) {
  auto run = [] {
    const Machine machine = make_minotauro_node(2, 2);
    Runtime rt(machine, sim_config());
    SparseLuApp app(rt, small_params());
    app.run();
    return std::make_pair(rt.elapsed(), app.task_count());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace versa::apps
