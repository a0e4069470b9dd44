// Unit tests of the sharded per-worker queues behind the ThreadExecutor
// lock split: ordering semantics (priority insertion, FIFO pop, back
// steal) must match the historical single-lock queues exactly, and the
// shards must survive concurrent push/pop/steal (the TSan CI job runs
// this binary too).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sched/core/worker_queues.h"

namespace versa::core {
namespace {

QueueEntry entry(TaskId id, int priority = 0) {
  return QueueEntry{id, priority};
}

TEST(WorkerQueues, PopIsFifoWithinOnePriorityLevel) {
  WorkerQueues queues;
  queues.reset(2);
  for (TaskId id = 1; id <= 4; ++id) {
    queues.push(0, entry(id));
  }
  for (TaskId id = 1; id <= 4; ++id) {
    const auto popped = queues.pop_front(0);
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->id, id);
  }
  EXPECT_FALSE(queues.pop_front(0).has_value());
}

TEST(WorkerQueues, PriorityInsertionOvertakesLowerPriorityOnly) {
  WorkerQueues queues;
  queues.reset(1);
  queues.push(0, entry(1, 0));
  queues.push(0, entry(2, 5));  // overtakes the priority-0 entry
  queues.push(0, entry(3, 0));
  queues.push(0, entry(4, 5));  // stable behind the earlier priority-5
  const std::vector<TaskId> expected = {2, 4, 1, 3};
  EXPECT_EQ(queues.snapshot(0), expected);
}

TEST(WorkerQueues, StealTakesFromTheBack) {
  WorkerQueues queues;
  queues.reset(1);
  queues.push(0, entry(1));
  queues.push(0, entry(2));
  queues.push(0, entry(3));
  const auto stolen = queues.steal_back(0);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->id, 3);  // the victim keeps its head-of-queue work
  const auto popped = queues.pop_front(0);
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->id, 1);
}

TEST(WorkerQueues, EntryCarriesThePushedFields) {
  WorkerQueues queues;
  queues.reset(1);
  queues.push(0, entry(7, 3));
  const auto popped = queues.pop_front(0);
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->id, 7u);
  EXPECT_EQ(popped->priority, 3);
}

TEST(WorkerQueues, LengthMirrorsTheShard) {
  WorkerQueues queues;
  queues.reset(3);
  EXPECT_EQ(queues.worker_count(), 3u);
  queues.push(1, entry(1));
  queues.push(1, entry(2));
  EXPECT_EQ(queues.length(0), 0u);
  EXPECT_EQ(queues.length(1), 2u);
  queues.steal_back(1);
  EXPECT_EQ(queues.length(1), 1u);
  queues.pop_front(1);
  EXPECT_EQ(queues.length(1), 0u);
  EXPECT_FALSE(queues.steal_back(1).has_value());
}

TEST(WorkerQueues, ResetDropsQueuedWork) {
  WorkerQueues queues;
  queues.reset(1);
  queues.push(0, entry(1));
  queues.reset(2);
  EXPECT_EQ(queues.length(0), 0u);
  EXPECT_FALSE(queues.pop_front(0).has_value());
}

TEST(WorkerQueues, ResetKeepsTheCoverOnRebuiltShards) {
  WorkerQueues queues;
  queues.reset(1);
  EXPECT_FALSE(queues.covered(0));
  queues.cover_with(lock_order::kLockRankRuntime);
  EXPECT_TRUE(queues.covered(0));
  queues.reset(3);
  for (WorkerId w = 0; w < 3; ++w) EXPECT_TRUE(queues.covered(w)) << w;
}

TEST(WorkerQueues, ConcurrentPushPopStealDrainsExactly) {
  // One producer pushes into a shard while its owner pops from the front
  // and a thief steals from the back: every entry must surface exactly
  // once. Exercises the shard mutex and the atomic length mirror under
  // TSan.
  constexpr int kEntries = 2000;
  WorkerQueues queues;
  queues.reset(1);

  std::vector<std::atomic<int>> seen(kEntries + 1);
  std::atomic<int> drained{0};

  auto consume = [&](auto take) {
    while (drained.load(std::memory_order_relaxed) < kEntries) {
      if (const auto e = take()) {
        seen[e->id].fetch_add(1, std::memory_order_relaxed);
        drained.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::this_thread::yield();
      }
    }
  };

  std::thread producer([&] {
    for (int i = 1; i <= kEntries; ++i) {
      queues.push(0, entry(static_cast<TaskId>(i), i % 3));
    }
  });
  std::thread owner([&] { consume([&] { return queues.pop_front(0); }); });
  std::thread thief([&] { consume([&] { return queues.steal_back(0); }); });

  producer.join();
  owner.join();
  thief.join();

  EXPECT_EQ(drained.load(), kEntries);
  for (int i = 1; i <= kEntries; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "entry " << i;
  }
  EXPECT_EQ(queues.length(0), 0u);
}

}  // namespace
}  // namespace versa::core
