// Micro-benchmarks (google-benchmark) for the scheduling core: placement
// decisions per second at deep queue depths on a 24-worker node.
//
// The interesting comparison is BM_PlacementVersioning (incremental load
// account + finish-time index) against BM_PlacementLegacyRescan, a faithful
// in-bench reimplementation of the pre-refactor earliest-executor loop that
// recomputed every worker's busy time by rescanning its queue against the
// profile table on every decision — O(versions x workers x queue depth) per
// placement. Each measured step places one task and retires one from the
// receiving worker, so the queue depth stays pinned at the Arg value.
//
// BM_LearningPoolDrain prices a completion while the learning pool is
// full of one blocked group's tasks (the paper-sim learning window).
//
// BM_LoadAccountReprice prices a profile-mean move in the load account
// when every SMP worker holds queued tasks of the price, followed by the
// placement's read of the finish-time index (where the index is sorted).
//
// BM_PlaceReliableMix prices one reliable-phase task cycle (ready, pop,
// complete) over a mix of task types and sizes, each task arriving with
// its profile cell unresolved: the one cell resolution, the placement's
// reads by cell, the account charge and the completion's record and
// re-price.
#include <benchmark/benchmark.h>

#include <deque>
#include <vector>

#include "bench_context.h"
#include "machine/presets.h"
#include "sched/core/load_account.h"
#include "sched/fifo_scheduler.h"
#include "sched/versioning_scheduler.h"

namespace versa {
namespace {

using bench::BenchContext;
using bench::kTaskSize;

constexpr int kBatch = 64;  // placements per benchmark iteration

/// A 24-worker fat node (16 cores + 8 GPUs) — bigger than the MinoTauro
/// preset allows, to stress the index at realistic future scale.
Machine make_fat_node() {
  Machine::Builder builder;
  builder.set_host_capacity(64ull << 30);
  for (std::size_t i = 0; i < 16; ++i) {
    const DeviceId core = builder.add_device(
        DeviceKind::kSmp, kHostSpace, "core-" + std::to_string(i), 10e9);
    builder.add_worker(core, "smp-" + std::to_string(i));
  }
  for (std::size_t g = 0; g < 8; ++g) {
    const SpaceId space =
        builder.add_space("gpu-mem-" + std::to_string(g), 6ull << 30);
    const DeviceId dev = builder.add_device(
        DeviceKind::kCuda, space, "gpu-" + std::to_string(g), 600e9);
    builder.add_worker(dev, "gpu-" + std::to_string(g));
    builder.add_bidi_link(kHostSpace, space, 6.0e9, 15e-6);
  }
  return builder.build();
}

/// Prime every version past λ so placement takes the reliable-phase
/// earliest-executor path (the hot path under study), with distinct means
/// so decisions are not degenerate.
void prime_reliable(ProfileTable& profile, const BenchContext& ctx) {
  Duration mean = 1e-3;
  for (VersionId v : ctx.registry_.versions(ctx.type_)) {
    profile.prime(ctx.type_, v, profile.group_key(kTaskSize), mean, 16);
    mean *= 0.4;  // GPU version faster, as on the real node
  }
}

void BM_PlacementVersioning(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  BenchContext ctx(make_fat_node());
  VersioningScheduler sched;
  sched.attach(ctx);
  prime_reliable(sched.mutable_profile(), ctx);
  for (std::size_t i = 0; i < depth; ++i) {
    sched.task_ready(ctx.ready_task());
  }
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      sched.task_ready(ctx.ready_task());
      // Retire one task from the receiving worker: depth stays constant.
      benchmark::DoNotOptimize(sched.pop_task(ctx.last_worker_));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_PlacementVersioning)->Arg(1000)->Arg(10000)->Arg(50000);

/// The pre-refactor decision loop, reimplemented verbatim as a baseline:
/// per placement, for every version and every compatible worker, busy time
/// is recomputed by walking the worker's queue and summing the current
/// profile means of the queued tasks.
struct LegacyRescanSched {
  struct Entry {
    TaskTypeId type;
    VersionId version;
    std::uint64_t size;
  };

  const Machine& machine;
  const VersionRegistry& registry;
  const ProfileTable& profile;
  std::vector<std::deque<Entry>> queues;

  LegacyRescanSched(const Machine& m, const VersionRegistry& r,
                    const ProfileTable& p)
      : machine(m), registry(r), profile(p), queues(m.worker_count()) {}

  Duration busy(WorkerId w) const {
    Duration sum = 0.0;
    for (const Entry& e : queues[w]) {
      sum += profile.mean(e.type, e.version, e.size).value_or(0.0);
    }
    return sum;
  }

  WorkerId place(TaskTypeId type, std::uint64_t size) {
    VersionId best_version = kInvalidVersion;
    WorkerId best_worker = kInvalidWorker;
    Duration best_finish = 0.0;
    for (VersionId v : registry.versions(type)) {
      const TaskVersion& version = registry.version(v);
      const Duration mean = profile.mean(type, v, size).value_or(0.0);
      for (const WorkerDesc& w : machine.workers()) {
        if (w.kind != version.device) continue;
        const Duration finish = busy(w.id) + mean;
        if (best_worker == kInvalidWorker || finish < best_finish) {
          best_finish = finish;
          best_version = v;
          best_worker = w.id;
        }
      }
    }
    queues[best_worker].push_back(Entry{type, best_version, size});
    return best_worker;
  }
};

void BM_PlacementLegacyRescan(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  BenchContext ctx(make_fat_node());
  VersioningScheduler donor;  // profile table with the same primed means
  donor.attach(ctx);
  prime_reliable(donor.mutable_profile(), ctx);
  LegacyRescanSched sched(ctx.machine_, ctx.registry_, donor.profile());
  for (std::size_t i = 0; i < depth; ++i) {
    sched.place(ctx.type_, kTaskSize);
  }
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      const WorkerId w = sched.place(ctx.type_, kTaskSize);
      sched.queues[w].pop_front();
      benchmark::DoNotOptimize(sched.queues[w].size());
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_PlacementLegacyRescan)->Arg(1000)->Arg(10000);

void BM_PlacementFifo(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  BenchContext ctx(make_fat_node());
  FifoScheduler sched;
  sched.attach(ctx);
  for (std::size_t i = 0; i < depth; ++i) {
    sched.task_ready(ctx.ready_task());
  }
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      sched.task_ready(ctx.ready_task());
      benchmark::DoNotOptimize(sched.pop_task(0));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_PlacementFifo)->Arg(10000);

void BM_LeastBusyLookup(benchmark::State& state) {
  BenchContext ctx(make_fat_node());
  VersioningScheduler sched;
  sched.attach(ctx);
  prime_reliable(sched.mutable_profile(), ctx);
  for (std::size_t i = 0; i < 10000; ++i) {
    sched.task_ready(ctx.ready_task());
  }
  for (auto _ : state) {
    for (WorkerId w = 0; w < 24; ++w) {
      benchmark::DoNotOptimize(sched.estimated_busy(w));
    }
  }
  state.SetItemsProcessed(state.iterations() * 24);
}
BENCHMARK(BM_LeastBusyLookup);

/// One completion cycle (place, pop, complete) of a reliable-group task
/// while the learning pool holds Arg tasks of one blocked group: the
/// group's learning slots are all taken by runs that never finish, so
/// every completion's pool drain fails that group. The drain tries the
/// group once and stops, so the ns per cycle should not grow with Arg.
void BM_LearningPoolDrain(benchmark::State& state) {
  const std::size_t pooled = static_cast<std::size_t>(state.range(0));
  BenchContext ctx(make_fat_node());
  VersioningScheduler sched;
  sched.attach(ctx);
  // Tasks of 4x the size form a second group, primed past λ.
  constexpr std::uint64_t kReliableSize = 4 * kTaskSize;
  ProfileTable& profile = sched.mutable_profile();
  const Duration mean = 1e-3;
  for (VersionId v : ctx.registry_.versions(ctx.type_)) {
    profile.prime(ctx.type_, v, profile.group_key(kReliableSize), mean, 16);
  }
  // Fill the learning group's slots and start those runs, then pool the
  // rest; every worker queue ends empty.
  for (std::size_t in_pool = 0; in_pool < pooled;) {
    Task& task = ctx.ready_task();
    sched.task_ready(task);
    if (task.assigned_worker == kInvalidWorker) {
      ++in_pool;
    } else {
      benchmark::DoNotOptimize(sched.pop_task(task.assigned_worker));
    }
  }
  // One task reused for every cycle keeps the graph from growing.
  Task& task = ctx.graph_.create_task(ctx.type_, {}, kReliableSize, "");
  for (auto _ : state) {
    task.state = TaskState::kReady;
    sched.task_ready(task);
    const WorkerId worker = task.assigned_worker;
    benchmark::DoNotOptimize(sched.pop_task(worker));
    sched.task_completed(task, worker, mean);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LearningPoolDrain)->Arg(16)->Arg(256)->Arg(1024);

void BM_LoadAccountReprice(benchmark::State& state) {
  const Machine machine = make_minotauro_node(8, 2);  // 0-7 smp, 8-9 cuda
  core::LoadAccount account;
  account.reset(machine);
  const PriceId key = 0;
  TaskId next = 1;
  for (WorkerId w = 0; w < 8; ++w) {
    for (std::uint32_t i = 0; i <= w; ++i) {
      account.on_push(next++, key, w, 1e-3);
    }
  }
  // Alternate two means so every reprice moves all 8 shares.
  bool low = false;
  for (auto _ : state) {
    low = !low;
    account.reprice(key, low ? 1e-3 : 2e-3);
    benchmark::DoNotOptimize(
        account.workers_by_busy(DeviceKind::kSmp).front());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LoadAccountReprice);

void BM_PlaceReliableMix(benchmark::State& state) {
  constexpr int kTypes = 4;
  constexpr int kSizes = 4;
  constexpr int kTasks = 256;
  BenchContext ctx(make_fat_node());
  std::vector<TaskTypeId> types = {ctx.type_};
  for (int t = 1; t < kTypes; ++t) {
    const TaskTypeId type = ctx.registry_.declare_task("t" + std::to_string(t));
    ctx.registry_.add_version(type, DeviceKind::kSmp, "smp", nullptr, nullptr);
    ctx.registry_.add_version(type, DeviceKind::kCuda, "gpu", nullptr, nullptr);
    types.push_back(type);
  }
  VersioningScheduler sched;
  sched.attach(ctx);
  ProfileTable& profile = sched.mutable_profile();
  // Every (type, size) group reliable, means growing with the size and
  // differing per type; the GPU version faster, as on the real node.
  const auto mean_of = [&](TaskTypeId type, int size_index, VersionId v) {
    const Duration smp =
        1e-3 * (1 + type) * static_cast<double>(1 << size_index);
    return ctx.registry_.version(v).device == DeviceKind::kSmp ? smp
                                                               : 0.4 * smp;
  };
  for (TaskTypeId type : types) {
    for (int s = 0; s < kSizes; ++s) {
      for (VersionId v : ctx.registry_.versions(type)) {
        profile.prime(type, v, profile.group_key(kTaskSize << s),
                      mean_of(type, s, v), 16);
      }
    }
  }
  std::vector<Task*> tasks;
  std::vector<int> size_index;
  for (int i = 0; i < kTasks; ++i) {
    const int s = (i / kTypes) % kSizes;
    tasks.push_back(&ctx.graph_.create_task(types[i % kTypes], {},
                                            kTaskSize << s, ""));
    size_index.push_back(s);
  }
  for (auto _ : state) {
    for (int i = 0; i < kTasks; ++i) {
      // Re-ready the task as a fresh one: no resolved cell, no charge.
      Task& task = *tasks[i];
      task.state = TaskState::kReady;
      task.profile_cell = kNoCell;
      task.scheduler_estimate = 0.0;
      sched.task_ready(task);
      const WorkerId worker = task.assigned_worker;
      benchmark::DoNotOptimize(sched.pop_task(worker));
      // Recording the primed mean keeps every mean, so every decision,
      // the same from cycle to cycle.
      sched.task_completed(
          task, worker, mean_of(task.type, size_index[i], task.chosen_version));
    }
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_PlaceReliableMix);

}  // namespace
}  // namespace versa

BENCHMARK_MAIN();
