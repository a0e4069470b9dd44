// Concurrency stress for the ThreadExecutor lock split, written for the
// CI thread-sanitizer job: several producer threads submit through the
// runtime public API while worker threads pop and steal through the
// lock-free fast path (Scheduler::try_pop_queued). Beyond surviving TSan,
// every run asserts the completion counts and that the load account
// settled back to idle — a charge leaked by a racy pop/steal/settle
// interleaving shows up as a non-zero estimated_busy after the barrier.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "machine/presets.h"
#include "runtime/runtime.h"
#include "sched/scheduler.h"
#include "util/lock_order.h"

namespace versa {
namespace {

struct StressOutcome {
  long executed = 0;
  std::uint64_t total_tasks = 0;
};

/// A steal is traced when the thief starts the task, under the runtime
/// lock: exactly the tasks that completed on a worker other than the one
/// they were placed on carry a `steal` event, one each, naming the worker
/// that completed them.
void expect_steals_traced(Runtime& rt, std::uint64_t tasks) {
  const core::DecisionTrace& trace = rt.scheduler().decision_trace();
  ASSERT_EQ(trace.dropped(), 0u);
  std::map<TaskId, WorkerId> placed;
  std::map<TaskId, WorkerId> done;
  std::map<TaskId, std::vector<WorkerId>> steals;
  for (const core::TraceEvent& e : trace.events()) {
    switch (e.kind) {
      case core::TraceEventKind::kPlacement:
      case core::TraceEventKind::kLearningPlacement:
        placed[e.task] = e.worker;
        break;
      case core::TraceEventKind::kComplete:
        done[e.task] = e.worker;
        break;
      case core::TraceEventKind::kSteal:
        steals[e.task].push_back(e.worker);
        break;
      default:
        break;
    }
  }
  ASSERT_EQ(done.size(), tasks);
  std::size_t moved = 0;
  for (const auto& [task, worker] : done) {
    ASSERT_EQ(placed.count(task), 1u) << "task " << task;
    const auto stolen = steals.find(task);
    if (placed.at(task) == worker) {
      EXPECT_EQ(stolen, steals.end())
          << "task " << task << " ran where it was placed";
      continue;
    }
    ++moved;
    ASSERT_NE(stolen, steals.end()) << "untraced steal of task " << task;
    EXPECT_EQ(stolen->second, std::vector<WorkerId>{worker})
        << "task " << task;
  }
  EXPECT_EQ(steals.size(), moved) << "steal event for a task never moved";
}

/// Drive `producers` external threads, each submitting `per_producer`
/// tasks, against a 4-worker SMP thread backend, then assert the runtime
/// and the scheduling core are fully drained (and, with `sched_trace`,
/// that the decision trace records every steal).
void run_stress(const std::string& scheduler, int producers, int per_producer,
                bool independent_tasks, bool sched_trace = false) {
  const Machine machine = make_smp_machine(4);
  RuntimeConfig config;
  config.backend = Backend::kThreads;
  config.scheduler = scheduler;
  config.sched_trace = sched_trace;
  Runtime rt(machine, config);

  std::atomic<long> executed{0};
  const TaskTypeId type = rt.declare_task("stress");
  rt.add_version(type, DeviceKind::kSmp, "v", [&](TaskContext&) {
    executed.fetch_add(1, std::memory_order_relaxed);
  });

  // Chain mode: one region per producer, inout accesses serialize its
  // tasks into a chain — readiness trickles, so workers go idle and wake
  // repeatedly. Independent mode: one region per task — the whole burst
  // is ready at once, so queues fill and steals kick in.
  std::vector<RegionId> chain_regions;
  if (!independent_tasks) {
    for (int p = 0; p < producers; ++p) {
      chain_regions.push_back(
          rt.register_data("chain" + std::to_string(p), 64));
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < per_producer; ++i) {
        if (independent_tasks) {
          const RegionId r = rt.register_data(
              "r" + std::to_string(p) + "_" + std::to_string(i), 64);
          // Vary priority so the concurrent priority insertion runs too.
          rt.submit(type, {Access::inout(r)}, "", i % 3);
        } else {
          rt.submit(type, {Access::inout(chain_regions[
              static_cast<std::size_t>(p)])});
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  rt.taskwait();

  const long expected = static_cast<long>(producers) * per_producer;
  EXPECT_EQ(executed.load(), expected);
  EXPECT_EQ(rt.run_stats().total_tasks(),
            static_cast<std::uint64_t>(expected));

  // Quiescent consistency: nothing pending, queues empty, and the load
  // account released every charge it ever took. fifo is not a
  // QueueScheduler (central deque under the runtime lock), so the
  // per-worker checks apply to the push-style policies only.
  EXPECT_FALSE(rt.scheduler().has_pending());
  const WorkerId workers = static_cast<WorkerId>(machine.worker_count());
  if (auto* qs = dynamic_cast<QueueScheduler*>(&rt.scheduler())) {
    for (WorkerId w = 0; w < workers; ++w) {
      EXPECT_EQ(qs->queue_length(w), 0u) << "worker " << w;
      EXPECT_TRUE(qs->queued_tasks(w).empty()) << "worker " << w;
    }
  }
  for (WorkerId w = 0; w < workers; ++w) {
    EXPECT_DOUBLE_EQ(rt.scheduler().estimated_busy(w), 0.0) << "worker " << w;
  }
  if (sched_trace) {
    expect_steals_traced(rt, static_cast<std::uint64_t>(expected));
  }
}

/// Combined submit-storm + completion-burst: each producer submits an
/// independent burst (queues fill, steals kick in) followed by a private
/// chain (readiness trickles, so completions keep re-pricing while later
/// submissions land). On top of the drain checks this asserts that every
/// profile-mean move re-prices the account exactly once, at once:
/// flushes equal requests, with completions racing pops and steals.
void run_storm_burst(const std::string& scheduler) {
  const Machine machine = make_smp_machine(4);
  RuntimeConfig config;
  config.backend = Backend::kThreads;
  config.scheduler = scheduler;
  Runtime rt(machine, config);

  std::atomic<long> executed{0};
  const TaskTypeId type = rt.declare_task("storm");
  rt.add_version(type, DeviceKind::kSmp, "v", [&](TaskContext&) {
    executed.fetch_add(1, std::memory_order_relaxed);
  });

  constexpr int kProducers = 4;
  constexpr int kBurst = 24;
  constexpr int kChain = 16;
  std::vector<RegionId> chain_regions;
  for (int p = 0; p < kProducers; ++p) {
    chain_regions.push_back(rt.register_data("chain" + std::to_string(p), 64));
  }

  std::vector<std::thread> threads;
  threads.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kBurst; ++i) {
        const RegionId r = rt.register_data(
            "s" + std::to_string(p) + "_" + std::to_string(i), 64);
        rt.submit(type, {Access::inout(r)}, "", i % 3);
      }
      for (int i = 0; i < kChain; ++i) {
        rt.submit(type,
                  {Access::inout(chain_regions[static_cast<std::size_t>(p)])});
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  rt.taskwait();

  const long expected = kProducers * (kBurst + kChain);
  EXPECT_EQ(executed.load(), expected);
  EXPECT_EQ(rt.run_stats().total_tasks(),
            static_cast<std::uint64_t>(expected));
  EXPECT_FALSE(rt.scheduler().has_pending());

  auto* qs = dynamic_cast<QueueScheduler*>(&rt.scheduler());
  ASSERT_NE(qs, nullptr);
  // Every mean move re-prices at once: nothing coalesces, nothing waits.
  EXPECT_EQ(qs->reprice_flushes(), qs->reprice_requests());
  const WorkerId workers = static_cast<WorkerId>(machine.worker_count());
  for (WorkerId w = 0; w < workers; ++w) {
    EXPECT_EQ(qs->queue_length(w), 0u) << "worker " << w;
    EXPECT_DOUBLE_EQ(rt.scheduler().estimated_busy(w), 0.0) << "worker " << w;
  }
}

TEST(ThreadStress, StormBurstAllBusyTrackingPolicies) {
  for (const char* policy :
       {"dep-aware", "affinity", "versioning", "versioning-locality"}) {
    SCOPED_TRACE(policy);
    run_storm_burst(policy);
  }
}

TEST(ThreadStress, VersioningChainsTrickleReadiness) {
  run_stress("versioning", 4, 40, /*independent_tasks=*/false);
}

TEST(ThreadStress, VersioningIndependentBurst) {
  run_stress("versioning", 4, 40, /*independent_tasks=*/true);
}

TEST(ThreadStress, DepAwareBurstExercisesStealing) {
  // dep-aware enables same-kind work stealing, so the burst drains through
  // both pop_front and steal_back concurrently.
  run_stress("dep-aware", 4, 40, /*independent_tasks=*/true);
}

TEST(ThreadStress, AffinityBurstExercisesStealing) {
  run_stress("affinity", 4, 40, /*independent_tasks=*/true);
}

TEST(ThreadStress, StealingBurstTracesEveryStealOnce) {
  for (const char* policy : {"affinity", "dep-aware"}) {
    SCOPED_TRACE(policy);
    run_stress(policy, 4, 40, /*independent_tasks=*/true,
               /*sched_trace=*/true);
  }
}

TEST(ThreadStress, FifoFallbackPathStaysCorrect) {
  // fifo pops under the runtime lock through the base try_pop_queued
  // fallback: the split must leave the slow path just as correct.
  run_stress("fifo", 2, 30, /*independent_tasks=*/true);
}

std::atomic<int> g_lock_order_violations{0};

void count_violation(const char* /*report*/) {
  g_lock_order_violations.fetch_add(1, std::memory_order_relaxed);
}

/// Concurrent worker acquires on a heterogeneous node: SMP + GPU workers,
/// so each executing worker stages real cross-space transfers into its own
/// space off the runtime lock, concurrently with the other workers' acquires
/// and with placement-time directory pricing. Run with the lock-order
/// checker enforced: any acquisition inverting the documented ranks fails
/// the test, TSan or no TSan.
void run_worker_acquire_storm(const std::string& scheduler) {
  const bool was_enforced = lock_order::enforced();
  lock_order::ViolationHandler previous =
      lock_order::set_violation_handler(count_violation);
  g_lock_order_violations.store(0, std::memory_order_relaxed);
  lock_order::set_enforced(true);
  {
    const Machine machine = make_minotauro_node(2, 2);
    RuntimeConfig config;
    config.backend = Backend::kThreads;
    config.scheduler = scheduler;
    Runtime rt(machine, config);

    std::atomic<long> executed{0};
    const TaskTypeId type = rt.declare_task("acquire_storm");
    // SMP version first = main version, so the baseline policies (which
    // ignore `implements`) stay runnable; the versioning family also
    // samples the CUDA version, spreading the storm across both memory
    // spaces so GPU workers stage device copies.
    rt.add_version(type, DeviceKind::kSmp, "smp", [&](TaskContext&) {
      executed.fetch_add(1, std::memory_order_relaxed);
    });
    rt.add_version(type, DeviceKind::kCuda, "cuda", [&](TaskContext&) {
      executed.fetch_add(1, std::memory_order_relaxed);
    });

    constexpr int kProducers = 3;
    constexpr int kPerProducer = 40;
    constexpr int kRegionsPerProducer = 4;
    std::vector<RegionId> regions;
    for (int p = 0; p < kProducers; ++p) {
      for (int r = 0; r < kRegionsPerProducer; ++r) {
        regions.push_back(rt.register_data(
            "s" + std::to_string(p) + "_" + std::to_string(r), 4096));
      }
    }

    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          // Rotate over the producer's regions: short dependence chains,
          // so readiness trickles and workers stage data while later
          // placements are still pricing the same regions.
          const std::size_t base =
              static_cast<std::size_t>(p) * kRegionsPerProducer;
          const RegionId rw = regions[base + static_cast<std::size_t>(
                                                 i % kRegionsPerProducer)];
          const RegionId ro = regions[base + static_cast<std::size_t>(
                                                 (i + 1) % kRegionsPerProducer)];
          rt.submit(type, {Access::inout(rw), Access::in(ro)}, "", i % 3);
        }
      });
    }
    for (auto& t : producers) {
      t.join();
    }
    rt.taskwait();

    const long expected = static_cast<long>(kProducers) * kPerProducer;
    EXPECT_EQ(executed.load(), expected);
    EXPECT_EQ(rt.run_stats().total_tasks(),
              static_cast<std::uint64_t>(expected));
    EXPECT_FALSE(rt.scheduler().has_pending());

    // Idle settle: queues drained, every charge released, and (taskwait
    // semantics) nothing dirty off-host once the flush accounting landed.
    const WorkerId workers = static_cast<WorkerId>(machine.worker_count());
    for (WorkerId w = 0; w < workers; ++w) {
      EXPECT_DOUBLE_EQ(rt.scheduler().estimated_busy(w), 0.0)
          << "worker " << w;
    }
    if (auto* qs = dynamic_cast<QueueScheduler*>(&rt.scheduler())) {
      for (WorkerId w = 0; w < workers; ++w) {
        EXPECT_EQ(qs->queue_length(w), 0u) << "worker " << w;
      }
      // Every placement is exactly one shard insertion (no failures are
      // injected here, so each task is placed once).
      EXPECT_EQ(qs->buffer_push_batches(),
                static_cast<std::uint64_t>(expected));
    }
    for (const RegionId region : regions) {
      EXPECT_EQ(rt.data_directory().dirty_space(region), kInvalidSpace);
    }
  }
  EXPECT_EQ(g_lock_order_violations.load(std::memory_order_relaxed), 0)
      << "lock-order violation under the " << scheduler
      << " worker acquire storm";
  lock_order::set_violation_handler(previous);
  lock_order::set_enforced(was_enforced);
}

TEST(ThreadStress, ConcurrentWorkerAcquiresAcrossSmpAndGpuSpaces) {
  for (const char* policy :
       {"dep-aware", "affinity", "versioning", "versioning-locality"}) {
    SCOPED_TRACE(policy);
    run_worker_acquire_storm(policy);
  }
}

TEST(ThreadStress, RepeatedRoundsReuseOneRuntime) {
  // Several submit/taskwait rounds against one runtime: wake epochs,
  // account state and queues must come back to idle every round.
  const Machine machine = make_smp_machine(4);
  RuntimeConfig config;
  config.backend = Backend::kThreads;
  config.scheduler = "versioning";
  Runtime rt(machine, config);

  std::atomic<long> executed{0};
  const TaskTypeId type = rt.declare_task("round");
  rt.add_version(type, DeviceKind::kSmp, "v", [&](TaskContext&) {
    executed.fetch_add(1, std::memory_order_relaxed);
  });
  const RegionId r = rt.register_data("r", 64);

  long expected = 0;
  for (int round = 0; round < 5; ++round) {
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < 10; ++i) {
          rt.submit(type, {Access::inout(r)});
        }
      });
    }
    for (auto& t : producers) {
      t.join();
    }
    expected += 2 * 10;
    rt.taskwait();
    ASSERT_EQ(executed.load(), expected) << "round " << round;
    ASSERT_FALSE(rt.scheduler().has_pending()) << "round " << round;
  }
}

}  // namespace
}  // namespace versa
