// Property tests for the synthetic workload generator (src/taskbench,
// DESIGN.md §14). Two layers:
//
//  * Oracle conformance — for a parameter sweep over every family, the
//    generated edge list must match the closed-form oracle exactly:
//    node/edge counts, payload volume, and (computed independently by
//    longest-path DP over the generated edges) the critical-path length.
//    The generator and the oracle share only the normalized parameters,
//    so a bug in either side trips the comparison.
//
//  * Execution conformance — 20 seeds × both backends: a generated graph
//    runs through the full Runtime (analyzer, directory, scheduler,
//    executor) and every task's observed timeline must respect the
//    oracle dependence closure: finish(ancestor) <= start(descendant)
//    for EVERY closure pair, zero violations. Families, policies and
//    shapes cycle with the seed so all seven families and all seven
//    policies are covered. Runs under the CI thread-sanitizer job with
//    VERSA_LOCK_ORDER=1.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "machine/presets.h"
#include "runtime/runtime.h"
#include "sched/scheduler_factory.h"
#include "taskbench/graph_spec.h"
#include "taskbench/runner.h"

namespace versa::taskbench {
namespace {

/// Critical path recomputed from the generated edges (longest chain in
/// tasks), independent of the oracle's closed-form formula. Edges are
/// sorted by (to, from) and every edge crosses one timestep forward, so a
/// single pass in flat-id order is a valid topological order.
std::uint32_t longest_chain(const GraphSpec& spec) {
  std::vector<std::uint32_t> depth(spec.node_count, 1);
  for (const auto& [from, to] : spec.edges) {
    depth[to] = std::max(depth[to], depth[from] + 1);
  }
  return spec.node_count == 0
             ? 0
             : *std::max_element(depth.begin(), depth.end());
}

TEST(TaskbenchOracle, GeneratorMatchesClosedForm) {
  for (const GraphFamily family : all_families()) {
    for (const std::uint32_t width : {1u, 2u, 3u, 7u, 16u, 33u}) {
      for (const std::uint32_t steps : {1u, 2u, 5u, 9u}) {
        TaskBenchParams params;
        params.family = family;
        params.width = width;
        params.steps = steps;
        params.payload_bytes = 512;
        params.fan = 3;
        params.seed = 7 * width + steps;
        const GraphSpec spec = generate_graph(params);
        const GraphOracle oracle = oracle_for(params);
        const std::string where = std::string(to_string(family)) + " w" +
                                  std::to_string(width) + " s" +
                                  std::to_string(steps);
        ASSERT_EQ(spec.node_count, oracle.nodes) << where;
        ASSERT_EQ(spec.edges.size(), oracle.edges) << where;
        ASSERT_EQ(longest_chain(spec), oracle.critical_path) << where;
        ASSERT_EQ(oracle.total_payload_bytes,
                  oracle.edges * spec.params.payload_bytes)
            << where;
        // Every edge must cross exactly one timestep forward — the
        // invariant the double-buffer submission scheme relies on.
        for (const auto& [from, to] : spec.edges) {
          ASSERT_EQ(spec.locate(to).first, spec.locate(from).first + 1)
              << where;
        }
      }
    }
  }
}

TEST(TaskbenchOracle, LocateAgreesWithLinearLevelWalk) {
  // locate() binary-searches level_offset; the reference is the plain
  // walk. Every flat id is checked, so each level's first and last node
  // (the search boundaries) are covered for every family.
  for (const GraphFamily family : all_families()) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
      TaskBenchParams params;
      params.family = family;
      params.width = 9;
      params.steps = 6;
      params.fan = 3;
      params.seed = seed;
      const GraphSpec spec = generate_graph(params);
      for (std::uint64_t flat = 0; flat < spec.node_count; ++flat) {
        std::uint32_t step = 0;
        while (step + 1 < spec.level_offset.size() &&
               spec.level_offset[step + 1] <= flat) {
          ++step;
        }
        const auto [got_step, got_index] = spec.locate(flat);
        ASSERT_EQ(got_step, step) << to_string(family) << " flat " << flat;
        ASSERT_EQ(got_index, flat - spec.level_offset[step])
            << to_string(family) << " flat " << flat;
      }
    }
  }
}

TEST(TaskbenchOracle, ClosureContainsEdgesAndTransitivePairs) {
  TaskBenchParams params;
  params.family = GraphFamily::kChain;
  params.width = 3;
  params.steps = 5;
  const GraphSpec spec = generate_graph(params);
  const auto closure = dependence_closure(spec);
  for (const auto& [from, to] : spec.edges) {
    EXPECT_TRUE(closure_reaches(closure, from, to));
  }
  // Chain column 0: node (0,0) reaches (4,0) but never column 1.
  EXPECT_TRUE(closure_reaches(closure, 0, spec.level_offset[4]));
  EXPECT_FALSE(closure_reaches(closure, 0, spec.level_offset[4] + 1));
  EXPECT_FALSE(closure_reaches(closure, spec.level_offset[4], 0));
}

/// One conformance run: submit the spec, run it, and require every
/// closure pair's timeline ordering. Returns the violation count so the
/// caller can attribute it to (seed, family, policy, backend).
int conformance_violations(const GraphSpec& spec, const std::string& policy,
                           Backend backend) {
  const Machine machine = make_minotauro_node(2, 1);
  RuntimeConfig config;
  config.backend = backend;
  config.scheduler = policy;
  config.seed = spec.params.seed;
  Runtime rt(machine, config);

  SubmitGraphOptions options;
  options.task_cost = backend == Backend::kThreads ? 100e-6 : 1e-4;
  options.spin_bodies = backend == Backend::kThreads;
  const std::vector<TaskId> tasks = submit_graph(rt, spec, options);
  rt.taskwait();

  const auto closure = dependence_closure(spec);
  int violations = 0;
  for (std::uint64_t v = 0; v < spec.node_count; ++v) {
    const Task& descendant = rt.task_graph().task(tasks[v]);
    for (std::uint64_t u = 0; u < spec.node_count; ++u) {
      if (!closure_reaches(closure, u, v)) continue;
      const Task& ancestor = rt.task_graph().task(tasks[u]);
      if (!(ancestor.finish_time <= descendant.start_time)) ++violations;
    }
  }
  return violations;
}

TEST(TaskbenchConformance, ObservedOrderRespectsOracleClosure) {
  const std::vector<GraphFamily> families = all_families();
  const std::vector<std::string> policies = scheduler_factory_names();
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    TaskBenchParams params;
    params.family = families[seed % families.size()];
    params.width = 3 + static_cast<std::uint32_t>(seed % 6);
    params.steps = 3 + static_cast<std::uint32_t>(seed % 4);
    params.payload_bytes = 256;
    params.fan = 2 + static_cast<std::uint32_t>(seed % 2);
    params.seed = seed;
    const GraphSpec spec = generate_graph(params);
    const std::string& policy = policies[seed % policies.size()];
    for (const Backend backend : {Backend::kSim, Backend::kThreads}) {
      EXPECT_EQ(conformance_violations(spec, policy, backend), 0)
          << "seed " << seed << " family " << to_string(params.family)
          << " policy " << policy << " backend "
          << (backend == Backend::kSim ? "sim" : "threads");
    }
  }
}

/// The efficiency definition is the dependence-aware ideal: a chain on
/// many workers is span-limited, not work-limited, so a perfect run
/// scores ~100%, not ~1/workers.
TEST(TaskbenchConformance, EfficiencyUsesSpanLimitedIdeal) {
  GraphOracle oracle;
  oracle.nodes = 8;
  oracle.critical_path = 8;  // pure chain
  const double cost = 1e-3;
  // Perfect serial execution of the chain on 4 workers: elapsed = 8 ms.
  EXPECT_DOUBLE_EQ(parallel_efficiency(oracle, cost, 4, 8e-3), 1.0);
  // Work-limited case: 8 independent tasks, 4 workers, perfect = 2 ms.
  oracle.critical_path = 1;
  EXPECT_DOUBLE_EQ(parallel_efficiency(oracle, cost, 4, 2e-3), 1.0);
  EXPECT_DOUBLE_EQ(parallel_efficiency(oracle, cost, 4, 4e-3), 0.5);
  // Degenerate inputs report 0, never divide by zero.
  EXPECT_DOUBLE_EQ(parallel_efficiency(oracle, cost, 0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(parallel_efficiency(oracle, cost, 4, 0.0), 0.0);
}

}  // namespace
}  // namespace versa::taskbench
