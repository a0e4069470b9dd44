// Micro-benchmarks (google-benchmark) for the runtime's hot paths: sim
// completion dispatch, dependence analysis, directory acquires, profile updates,
// versioning decisions, and end-to-end task throughput in simulation.
#include <benchmark/benchmark.h>

#include "bench_context.h"
#include "common/random.h"
#include "machine/presets.h"
#include "runtime/runtime.h"
#include "sched/profile_table.h"
#include "task/dependency_analyzer.h"

namespace versa {
namespace {

void BM_SimDispatch(benchmark::State& state) {
  // The sim completion loop at steady state: each iteration submits
  // `tasks` independent tasks (one region each) to a versioning runtime on
  // the 8 SMP + 2 GPU node and runs them to a noflush taskwait. Every
  // task costs one placement, one pop, one completion with its re-price
  // and one dispatch pass; the first iteration also pays the learning
  // phase. ns_per_task is the wall time per simulated task.
  const std::size_t tasks = static_cast<std::size_t>(state.range(0));
  const Machine machine = make_minotauro_node(8, 2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "g", nullptr, make_constant_cost(1e-3));
  rt.add_version(t, DeviceKind::kSmp, "c", nullptr, make_constant_cost(4e-3));
  std::vector<RegionId> regions;
  for (std::size_t i = 0; i < tasks; ++i) {
    regions.push_back(rt.register_data("r" + std::to_string(i), 1 << 12));
  }
  for (auto _ : state) {
    for (const RegionId r : regions) rt.submit(t, {Access::inout(r)});
    rt.taskwait_noflush();
  }
  const double simulated = static_cast<double>(state.iterations()) *
                           static_cast<double>(tasks);
  state.counters["ns_per_task"] = benchmark::Counter(
      simulated * 1e-9, benchmark::Counter::kIsRate |
                            benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<std::int64_t>(simulated));
}
BENCHMARK(BM_SimDispatch)->Arg(1 << 10)->Arg(8 << 10);

void BM_DependencyAnalysisChain(benchmark::State& state) {
  const std::size_t tasks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    DependencyAnalyzer analyzer;
    std::vector<TaskId> preds;
    for (TaskId t = 0; t < tasks; ++t) {
      preds.clear();
      analyzer.add_task(t, {Access{0, AccessMode::kInOut, 0, 4096}}, preds);
      benchmark::DoNotOptimize(preds.size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_DependencyAnalysisChain)->Arg(1024);

void BM_DependencyAnalysisRandomRanges(benchmark::State& state) {
  const std::size_t tasks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    DependencyAnalyzer analyzer;
    Rng rng(1);
    std::vector<TaskId> preds;
    for (TaskId t = 0; t < tasks; ++t) {
      const std::uint64_t offset = rng.next_below(1 << 20);
      const std::uint64_t length = 1 + rng.next_below(1 << 16);
      const auto mode = static_cast<AccessMode>(rng.next_below(3));
      preds.clear();
      analyzer.add_task(t, {Access{0, mode, offset, length}}, preds);
      benchmark::DoNotOptimize(preds.size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_DependencyAnalysisRandomRanges)->Arg(1024);

void BM_UnregisterAfterHistory(benchmark::State& state) {
  // One dynamic-region cycle (register, submit a writer, taskwait_on,
  // unregister) after `history` finished tasks. Retiring a region reads a
  // per-region user count and the region's last writers, so ns per cycle
  // must stay flat across the Args. The cycle waits with taskwait_on: the
  // master-level taskwait flushes every region ever registered, which
  // would grow with the iteration count instead of the task history.
  const std::size_t history = static_cast<std::size_t>(state.range(0));
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "dep-aware";
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-6));
  std::vector<RegionId> regions;
  for (int i = 0; i < 16; ++i) {
    regions.push_back(rt.register_data("h" + std::to_string(i), 64));
  }
  for (std::size_t i = 0; i < history; ++i) {
    rt.submit(t, {Access::inout(regions[i % regions.size()])});
  }
  rt.taskwait();
  for (auto _ : state) {
    const RegionId region = rt.register_data("cycle", 64);
    rt.submit(t, {Access::out(region)});
    rt.taskwait_on(region);
    rt.unregister_data(region);
    benchmark::DoNotOptimize(region);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_UnregisterAfterHistory)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_SubmitWideAccessList(benchmark::State& state) {
  // One task with `width` inout clauses on distinct regions per iteration:
  // submit (clause resolution and data-set sizing, dependence analysis,
  // placement with its prefetch acquire), then a noflush taskwait that
  // starts it (argument resolution for its body) and completes it. Every
  // step is linear in the clause count and takes the data lock a fixed
  // number of times, so ns per access must stay flat across the Args.
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("wide");
  rt.add_version(
      t, DeviceKind::kSmp, "v",
      [](TaskContext& ctx) { benchmark::DoNotOptimize(ctx.arg_size(0)); },
      make_constant_cost(1e-6));
  AccessList accesses;
  for (std::size_t i = 0; i < width; ++i) {
    accesses.push_back(
        Access::inout(rt.register_data("w" + std::to_string(i), 64)));
  }
  for (auto _ : state) {
    rt.submit(t, accesses);
    rt.taskwait_noflush();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(width));
}
BENCHMARK(BM_SubmitWideAccessList)->Arg(8)->Arg(64)->Arg(256);

void BM_DirectoryAcquireMigrate(benchmark::State& state) {
  const Machine machine = make_minotauro_node(2, 2);
  DataDirectory directory(machine);
  const RegionId region = directory.register_region("r", 1 << 20);
  const SpaceId gpu0 = machine.worker(2).space;
  const SpaceId gpu1 = machine.worker(3).space;
  TransferList ops;
  for (auto _ : state) {
    ops.clear();
    directory.acquire({Access::inout_range(region, 0, 1 << 20)}, gpu0, ops);
    ops.clear();
    directory.acquire({Access::inout_range(region, 0, 1 << 20)}, gpu1, ops);
    benchmark::DoNotOptimize(ops.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_DirectoryAcquireMigrate);

void BM_ProfileRecordAndQuery(benchmark::State& state) {
  VersionRegistry registry;
  const TaskTypeId type = registry.declare_task("t");
  const VersionId v0 =
      registry.add_version(type, DeviceKind::kCuda, "a", nullptr, nullptr);
  const VersionId v1 =
      registry.add_version(type, DeviceKind::kSmp, "b", nullptr, nullptr);
  ProfileTable table(registry, {});
  std::uint64_t size = 0;
  for (auto _ : state) {
    size = (size + 4096) % (1 << 22);
    table.record(type, v0, size, 1e-3);
    table.record(type, v1, size, 2e-3);
    benchmark::DoNotOptimize(table.fastest_version(type, size));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProfileRecordAndQuery);

void BM_EndToEndSimThroughput(benchmark::State& state) {
  const std::size_t tasks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const Machine machine = make_minotauro_node(4, 2);
    RuntimeConfig config;
    config.backend = Backend::kSim;
    config.scheduler = "versioning";
    config.noise.kind = sim::NoiseKind::kNone;
    Runtime rt(machine, config);
    const TaskTypeId t = rt.declare_task("t");
    rt.add_version(t, DeviceKind::kCuda, "g", nullptr, make_constant_cost(1e-3));
    rt.add_version(t, DeviceKind::kSmp, "c", nullptr, make_constant_cost(4e-3));
    std::vector<RegionId> regions;
    for (int i = 0; i < 16; ++i) {
      regions.push_back(rt.register_data("r" + std::to_string(i), 1 << 16));
    }
    for (std::size_t i = 0; i < tasks; ++i) {
      rt.submit(t, {Access::inout(regions[i % regions.size()])});
    }
    rt.taskwait();
    benchmark::DoNotOptimize(rt.elapsed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_EndToEndSimThroughput)->Arg(1000)->Arg(10000);

void BM_VersioningDecisionScaling(benchmark::State& state) {
  // Cost of the versioning scheduler's earliest-executor decision as the
  // machine grows: the decision scans (version, worker) pairs and sums
  // queue estimates, so this is the policy's hot path.
  const std::size_t smp = static_cast<std::size_t>(state.range(0));
  const Machine machine = make_minotauro_node(smp, 2);
  for (auto _ : state) {
    RuntimeConfig config;
    config.backend = Backend::kSim;
    config.scheduler = "versioning";
    config.noise.kind = sim::NoiseKind::kNone;
    Runtime rt(machine, config);
    const TaskTypeId t = rt.declare_task("t");
    rt.add_version(t, DeviceKind::kCuda, "g", nullptr,
                   make_constant_cost(1e-3));
    rt.add_version(t, DeviceKind::kSmp, "c", nullptr,
                   make_constant_cost(4e-3));
    std::vector<RegionId> regions;
    for (int i = 0; i < 32; ++i) {
      regions.push_back(rt.register_data("r" + std::to_string(i), 1 << 12));
    }
    for (int i = 0; i < 2000; ++i) {
      rt.submit(t, {Access::inout(regions[i % regions.size()])});
    }
    rt.taskwait();
    benchmark::DoNotOptimize(rt.elapsed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_VersioningDecisionScaling)->Arg(2)->Arg(8);

}  // namespace
}  // namespace versa

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  versa::bench::report_hardware_concurrency();
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
