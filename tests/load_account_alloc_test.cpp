// Allocation budget of the load account's hot operations
// (src/sched/core/load_account.h). Every placement, pop, completion, steal
// and profile-mean move mutates the account under the scheduler's account
// lock, so once the account has seen its price keys and its peak queue
// depth those operations must not touch the heap: on_push, on_pop,
// on_settle, on_steal and reprice make no allocation (the per-task
// entries live in a flat table sized by the peak, with no node per task),
// and neither does reading a finish-time index those changes left dirty
// (it is sorted in place).
//
// The count comes from a replacement global operator new in this file,
// which is why the test is its own executable. Only the account call sits
// between two reads of the counter; gtest's own allocations fall outside.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "machine/presets.h"
#include "sched/core/load_account.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
/// Keeps index reads from being optimized away.
std::size_t g_sink = 0;
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// GCC flags free() inside a replacement operator delete as a mismatched
// deallocation, although operator new above allocates with malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace versa {
namespace {

using core::LoadAccount;

/// Heap allocations made by `op`.
template <typename Op>
std::size_t allocations_of(Op&& op) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  op();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(LoadAccountAlloc, HotOperationsStayWithinBudget) {
  const Machine machine = make_minotauro_node(8, 2);  // 0-7 smp, 8-9 cuda
  const WorkerId workers = static_cast<WorkerId>(machine.worker_count());
  LoadAccount account;
  account.reset(machine);
  const std::vector<PriceId> keys = {0, 1, 2, 3};
  constexpr int kTasksPerWorker = 4;

  // Warm-up: create every bucket and grow the per-task table to the
  // measured phase's peak, then drain it.
  TaskId next = 1;
  for (int round = 0; round < 2; ++round) {
    std::vector<std::pair<TaskId, WorkerId>> queued;
    for (const PriceId key : keys) {
      account.reprice(key, 1e-3);
      for (WorkerId w = 0; w < workers; ++w) {
        for (int i = 0; i < kTasksPerWorker; ++i) {
          account.on_push(next, key, w, 2e-3);
          queued.emplace_back(next++, w);
        }
      }
    }
    for (const auto& [task, w] : queued) {
      account.on_pop(task, w);
      account.on_settle(w);
    }
  }
  ASSERT_EQ(account.tracked_tasks(), 0u);

  // Measured phase: the same keys and queue depths, every operation
  // counted on its own.
  std::size_t push_max = 0;
  std::vector<std::pair<TaskId, WorkerId>> queued;
  queued.reserve(keys.size() * workers * kTasksPerWorker);
  for (const PriceId key : keys) {
    for (WorkerId w = 0; w < workers; ++w) {
      for (int i = 0; i < kTasksPerWorker; ++i) {
        const TaskId task = next++;
        const Duration estimate = 1e-4 * static_cast<double>(task % 7 + 1);
        const std::size_t n = allocations_of(
            [&] { account.on_push(task, key, w, estimate); });
        push_max = std::max(push_max, n);
        queued.emplace_back(task, w);
      }
    }
  }
  EXPECT_EQ(push_max, 0u) << "on_push allocates";

  // Reading a dirty index sorts it in place; a clean read is a lookup.
  const auto read_both = [&] {
    g_sink += account.workers_by_busy(DeviceKind::kSmp).size();
    g_sink += account.least_busy(DeviceKind::kCuda);
  };
  EXPECT_EQ(allocations_of(read_both), 0u) << "dirty index read allocates";
  EXPECT_EQ(allocations_of(read_both), 0u) << "clean index read allocates";

  // Mean moves, including a forgotten mean and its return.
  for (const PriceId key : keys) {
    EXPECT_EQ(allocations_of([&] { account.reprice(key, 4e-3); }), 0u);
    EXPECT_EQ(allocations_of([&] { account.reprice(key, std::nullopt); }),
              0u);
    EXPECT_EQ(allocations_of([&] { account.reprice(key, 2.5e-3); }), 0u);
    EXPECT_EQ(allocations_of(read_both), 0u) << "dirty index read allocates";
  }

  // Steal every smp task queued on worker 0 to worker 1, and every cuda
  // task on worker 8 to worker 9: shares empty on the victim and grow on
  // the thief.
  for (auto& [task, w] : queued) {
    const WorkerId thief = w == 0 ? 1 : w == 8 ? 9 : w;
    if (thief == w) continue;
    const TaskId id = task;
    const WorkerId victim = w;
    EXPECT_EQ(allocations_of([&] { account.on_steal(id, victim, thief); }),
              0u);
    w = thief;
  }
  EXPECT_EQ(allocations_of(read_both), 0u) << "dirty index read allocates";

  // Drain: pop and settle everything; a reprice between pops walks
  // shares that are emptying.
  std::size_t popped = 0;
  for (const auto& [task, w] : queued) {
    const TaskId id = task;
    const WorkerId worker = w;
    EXPECT_EQ(allocations_of([&] { account.on_pop(id, worker); }), 0u);
    EXPECT_EQ(allocations_of([&] { account.on_settle(worker); }), 0u);
    if (++popped % 16 == 0) {
      EXPECT_EQ(allocations_of([&] { account.reprice(keys[0], 3e-3); }), 0u);
    }
  }
  EXPECT_EQ(account.tracked_tasks(), 0u);
  for (WorkerId w = 0; w < workers; ++w) EXPECT_EQ(account.busy_ticks(w), 0);
}

}  // namespace
}  // namespace versa
