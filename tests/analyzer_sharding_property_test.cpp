// Dependence-order tests for the DependencyAnalyzer. The analyzer has no
// lock of its own (the runtime lock serializes every call), so the
// concurrency evidence is end to end: a dependence-heavy chain program
// runs through the full Runtime on BOTH backends (the thread backend in
// the CI thread-sanitizer job, with VERSA_LOCK_ORDER=1); a reordered pair
// anywhere would break the non-commutative arithmetic the chains compute.
// A unit test pins clear_region/reset.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "machine/presets.h"
#include "runtime/runtime.h"
#include "task/dependency_analyzer.h"

namespace versa {
namespace {

TEST(AnalyzerSharding, ClearRegionAndResetDropOnlyTheirState) {
  DependencyAnalyzer analyzer;
  std::vector<TaskId> preds;
  // Two regions, one task each.
  analyzer.add_task(1, {Access{0, AccessMode::kInOut, 0, 64}}, preds);
  analyzer.add_task(2, {Access{3, AccessMode::kInOut, 0, 64}}, preds);
  EXPECT_EQ(analyzer.interval_count(), 2u);
  analyzer.clear_region(0);
  EXPECT_EQ(analyzer.interval_count(), 1u);
  // A fresh task on the cleared region sees no predecessors.
  preds.clear();
  analyzer.add_task(3, {Access{0, AccessMode::kInOut, 0, 64}}, preds);
  EXPECT_TRUE(preds.empty());
  analyzer.reset();
  EXPECT_EQ(analyzer.interval_count(), 0u);
}

/// End-to-end dependence order through the analyzer on one backend: 16
/// independent chains of non-commutative updates (x -> 2x+1), plus
/// cross-chain readers between links. Any pair executed out of dependence order
/// produces a wrong chain value.
void run_chain_program(Backend backend) {
  const Machine machine = make_smp_machine(4);
  RuntimeConfig config;
  config.backend = backend;
  config.scheduler = "dep-aware";
  Runtime rt(machine, config);

  constexpr int kChains = 16;
  constexpr int kLinks = 8;
  std::vector<long> cells(kChains, 0);
  std::vector<RegionId> regions;
  for (int c = 0; c < kChains; ++c) {
    regions.push_back(rt.register_data("chain" + std::to_string(c),
                                       sizeof(long), &cells[c]));
  }
  const TaskTypeId step = rt.declare_task("step");
  rt.add_version(step, DeviceKind::kSmp, "v", [](TaskContext& ctx) {
    auto* value = static_cast<long*>(ctx.arg(0));
    *value = *value * 2 + 1;
  });
  const TaskTypeId observe = rt.declare_task("observe");
  rt.add_version(observe, DeviceKind::kSmp, "v", [](TaskContext& ctx) {
    (void)*static_cast<const long*>(ctx.arg(0));
  });
  for (int link = 0; link < kLinks; ++link) {
    for (int c = 0; c < kChains; ++c) {
      rt.submit(step, {Access::inout(regions[static_cast<std::size_t>(c)])});
      // Cross-chain reader: depends on this chain's latest link and the
      // neighbour chain's, widening tasks across chains.
      rt.submit(observe,
                {Access::in(regions[static_cast<std::size_t>(c)]),
                 Access::in(regions[static_cast<std::size_t>(
                     (c + 1) % kChains)])});
    }
  }
  rt.taskwait();
  for (int c = 0; c < kChains; ++c) {
    EXPECT_EQ(cells[static_cast<std::size_t>(c)], (1L << kLinks) - 1) << c;
  }
}

TEST(AnalyzerSharding, ChainProgramOrderedOnSimBackend) {
  run_chain_program(Backend::kSim);
}

TEST(AnalyzerSharding, ChainProgramOrderedOnThreadBackend) {
  run_chain_program(Backend::kThreads);
}

}  // namespace
}  // namespace versa
