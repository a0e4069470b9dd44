// Property tests for the DependencyAnalyzer under concurrent producers (CI
// thread-sanitizer job, run there with VERSA_LOCK_ORDER=1): producers
// registering tasks over disjoint region sets from concurrent threads must
// compute exactly the predecessor sets a single-threaded serial replay
// computes, with the lock-order checker enforced (the counting handler
// fails the test on any inversion of the `analyzer` class).
//
// Two layers are pinned down:
//  * Unit — 20 random programs, each registered by 4 concurrent producer
//    threads (disjoint region ownership), compared task-by-task against
//    a serial oracle replay.
//  * End-to-end — a dependence-heavy chain program runs through the full
//    Runtime on BOTH backends; a reordered pair anywhere would break the
//    non-commutative arithmetic the chains compute.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "machine/presets.h"
#include "runtime/runtime.h"
#include "task/dependency_analyzer.h"
#include "util/lock_order.h"

namespace versa {
namespace {

std::atomic<int> g_violations{0};

void counting_handler(const char* /*report*/) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
}

class LockOrderGuard {
 public:
  LockOrderGuard()
      : was_enforced_(lock_order::enforced()),
        previous_(lock_order::set_violation_handler(counting_handler)) {
    g_violations.store(0, std::memory_order_relaxed);
    lock_order::set_enforced(true);
  }
  ~LockOrderGuard() {
    EXPECT_EQ(g_violations.load(std::memory_order_relaxed), 0)
        << "lock-order violations in the analyzer";
    lock_order::set_violation_handler(previous_);
    lock_order::set_enforced(was_enforced_);
  }

 private:
  bool was_enforced_;
  lock_order::ViolationHandler previous_;
};

constexpr int kProducers = 4;
constexpr int kTasksPerProducer = 12;
constexpr int kRegionsPerProducer = 6;
constexpr std::uint64_t kRegionBytes = 256;

/// One submission of one producer's program.
struct ProgramTask {
  TaskId id = kInvalidTask;
  AccessList accesses;
};

/// Random program for producer `p`: tasks over the producer's private
/// region set {p*K .. p*K+K-1}. The region chains are disjoint, so the
/// producers contend only on the analyzer mutex.
std::vector<ProgramTask> make_program(std::uint64_t seed, int p) {
  Rng rng(seed * 131u + static_cast<std::uint64_t>(p));
  std::vector<ProgramTask> program;
  for (int i = 0; i < kTasksPerProducer; ++i) {
    ProgramTask task;
    task.id = static_cast<TaskId>(p * 100 + i + 1);
    const std::size_t region_count = 1 + rng.next_below(3);
    std::vector<RegionId> chosen;
    while (chosen.size() < region_count) {
      const RegionId region = static_cast<RegionId>(
          p * kRegionsPerProducer + rng.next_below(kRegionsPerProducer));
      if (std::find(chosen.begin(), chosen.end(), region) != chosen.end()) {
        continue;
      }
      chosen.push_back(region);
      const std::uint64_t start = rng.next_below(kRegionBytes - 1);
      const std::uint64_t length = 1 + rng.next_below(kRegionBytes - start);
      const AccessMode mode =
          rng.next_below(3) == 0
              ? AccessMode::kIn
              : (rng.next_below(2) == 0 ? AccessMode::kOut
                                        : AccessMode::kInOut);
      task.accesses.push_back(Access{region, mode, start, length});
    }
    program.push_back(std::move(task));
  }
  return program;
}

std::vector<TaskId> sorted(std::vector<TaskId> preds) {
  std::sort(preds.begin(), preds.end());
  return preds;
}

TEST(AnalyzerSharding, ConcurrentProducersMatchSerialOracle) {
  LockOrderGuard lock_order_guard;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<std::vector<ProgramTask>> programs;
    for (int p = 0; p < kProducers; ++p) {
      programs.push_back(make_program(seed, p));
    }

    // Concurrent run: each producer registers its program in its own
    // program order from its own thread; region chains are disjoint
    // across producers, so any interleaving is serially equivalent.
    DependencyAnalyzer concurrent;
    std::vector<std::vector<std::vector<TaskId>>> got(kProducers);
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
      got[static_cast<std::size_t>(p)].resize(kTasksPerProducer);
      threads.emplace_back([&, p] {
        const auto& program = programs[static_cast<std::size_t>(p)];
        for (std::size_t i = 0; i < program.size(); ++i) {
          concurrent.add_task(program[i].id, program[i].accesses,
                              got[static_cast<std::size_t>(p)][i]);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }

    // Serial oracle: one thread, producer by producer, same per-producer
    // program order. Predecessors only ever arise within a producer's own
    // region chains, so the sets must match exactly.
    DependencyAnalyzer oracle;
    for (int p = 0; p < kProducers; ++p) {
      const auto& program = programs[static_cast<std::size_t>(p)];
      for (std::size_t i = 0; i < program.size(); ++i) {
        std::vector<TaskId> expected;
        oracle.add_task(program[i].id, program[i].accesses, expected);
        EXPECT_EQ(sorted(got[static_cast<std::size_t>(p)][i]),
                  sorted(expected))
            << "seed " << seed << " producer " << p << " task " << i;
      }
    }
    EXPECT_EQ(concurrent.interval_count(), oracle.interval_count())
        << "seed " << seed;
  }
}

TEST(AnalyzerSharding, ClearRegionAndResetDropOnlyTheirState) {
  LockOrderGuard lock_order_guard;
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
