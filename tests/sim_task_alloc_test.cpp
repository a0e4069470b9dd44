// Allocation budget of the sim backend's task path: submit, dependence
// registration, placement, the completion event and the release of
// successors. A fixed program (pbpi, 2 generations, 482 tasks) runs on a
// simulated MinoTauro node (8 SMP + 2 GPU workers) under the versioning
// scheduler, and the heap allocations made by its submit-and-taskwait are
// divided by the executed task count.
//
// The count comes from a replacement global operator new in this file,
// which is why the test is its own executable. Measured with
//   ./build/tests/sim_task_alloc_test
// on GCC 12.2 / libstdc++, RelWithDebInfo: 3.07 allocations per task
// (1482 for the run; the same program made 7.96 before tasks moved into
// chunked storage, successor edges into a per-graph pool, body arguments
// into the TaskContext's inline storage and the load account's per-task
// entries into a flat table, and 15.12 before the completion records,
// scratch vectors and event slots were reused). The budget adds about
// half an allocation per task of headroom for other standard libraries,
// so one more allocation per task anywhere on the path fails it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "apps/pbpi.h"
#include "machine/presets.h"
#include "runtime/runtime.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
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

constexpr double kAllocationsPerTaskBudget = 3.6;

/// Heap allocations per executed task of one pbpi run on a fresh runtime.
double pbpi_allocations_per_task() {
  const Machine machine = make_minotauro_node(8, 2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  apps::PbpiParams params;
  params.generations = 2;
  apps::PbpiApp app(rt, params);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  app.run();
  const std::size_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(rt.run_stats().total_tasks(), app.task_count());
  return static_cast<double>(allocations) /
         static_cast<double>(app.task_count());
}

TEST(SimTaskAlloc, PbpiStaysWithinBudget) {
  // The first run pays the process's one-time heap touches (logging,
  // lock-order tables); the second is the warm program that is measured.
  pbpi_allocations_per_task();
  const double per_task = pbpi_allocations_per_task();
  RecordProperty("allocations_per_task", std::to_string(per_task));
  std::printf("allocations per task: %.4f\n", per_task);
  EXPECT_LE(per_task, kAllocationsPerTaskBudget)
      << "the sim task path allocates more per task than it did";
}

}  // namespace
}  // namespace versa
